(** Demand-based centrality (paper §IV-B, equation (3)).

    For each demand [(i,j)] the set [P*(i,j)] of first shortest paths that
    cover the demand is estimated by successive Dijkstra runs on residual
    capacities (the paper's runtime approximation); each path [p]
    contributes a fraction [c(p) / sum_q c(q)] of the demand [d_ij] to
    the centrality of its {e interior} vertices.  Lengths follow the
    dynamic repair-aware metric of §IV-D, so already-repaired elements
    attract subsequent flow.

    The computation runs on the {e full} supply graph — broken elements
    included — with current residual capacities, per §IV-C: "the
    centrality calculation considers the original complete supply
    graph". *)

type contribution = {
  demand : Netrec_flow.Commodity.t;
  bundle : Paths.bundle;  (** the estimated [P*] for this demand *)
}

type t = {
  score : float array;  (** [cd(v)] per vertex *)
  contributions : contribution list;  (** one per live demand, in order *)
}

(** Incremental re-evaluation support.  A bundle depends only on the
    demand triple (src, dst, amount) and the current length/cap
    metrics, so a solver that reports every change to those metrics can
    keep bundles across iterations.  {!compute} then recomputes only the
    demands a change can reach and reuses every other bundle verbatim —
    results are bit-identical to a from-scratch evaluation (see DESIGN
    §11 for the exactness argument, which relies on Dijkstra's
    deterministic vertex-id tie-break). *)
module Cache : sig
  type cache

  val create : unit -> cache
  (** Fresh empty cache; use one per solver run. *)

  val note_worse : cache -> Graph.edge_id -> unit
  (** Record that an edge's length grew and/or its residual capacity
      shrank since the last {!compute} (a committed prune).  Cached
      bundles whose paths use the edge will be recomputed. *)

  val note_improved : cache -> Graph.vertex -> unit
  (** [note_improved c x] records a {e gate} [x]: some edges incident to
      [x] got shorter and/or gained residual capacity since the last
      {!compute} (a repair).  Contract: every edge that improved since
      the last {!compute} has an endpoint among the gates reported since
      then — a vertex repair reports the vertex, an edge repair either
      endpoint.  Without [?sample], the next {!compute} keeps the bundle
      of a pair (s, t) only when D(s) + D(t) exceeds the length of its
      longest path by a relative [1e-9], where D is the distance from
      the nearest gate under the current metric (one multi-source
      {!Dijkstra.within} search, counted in [dijkstra.*]); a bundle that
      stopped short of its demand goes whenever a gate is pending.  With
      [?sample], any gate invalidates every cached bundle. *)
end

val compute :
  ?cache:Cache.cache ->
  ?sample:int ->
  ?max_paths:int ->
  length:(Graph.edge_id -> float) ->
  cap:(Graph.edge_id -> float) ->
  Graph.t ->
  Netrec_flow.Commodity.t list ->
  t
(** Evaluate the metric.  Edges with non-positive residual capacity are
    unusable; demands with zero amount are skipped.  With [?cache],
    bundles of demands untouched since the previous call are reused;
    scores are re-aggregated from scratch either way, so without
    [?sample] the result is independent of the cache.  Counters
    [centrality.cache_hits] / [centrality.cache_misses] record the reuse
    rate.

    [?sample:k] turns on the xl approximation: among demands {e missing}
    from the cache (invalidated or never computed), only the top-[k] by
    amount (ties towards smaller [(src, dst)]) are given a fresh bundle
    this call; the rest are left out of scores and [contributions]
    entirely for this round — counted in [centrality.sampled_skipped]
    vs [centrality.sampled_recomputed].  Cache hits are always used, so
    under a warm cache the approximation only throttles how fast
    invalidations are repaid, not steady-state coverage.  Sampling
    changes results; it is only sound for heuristics that re-verify
    their final answer (ISP's final routing is recomputed by the flow
    oracle either way).

    [?max_paths] bounds each bundle's path enumeration, see
    {!Paths.shortest_bundle}. *)

val best : t -> Graph.vertex option
(** The vertex [v_BC] with the highest strictly positive centrality
    (ties broken towards the smallest id), or [None] when every score is
    zero — i.e. no demand has any interior shortest-path vertex left. *)

val contributors :
  Graph.t -> t -> Graph.vertex -> contribution list
(** [C(v)]: the demands whose [P*] bundle passes through [v] as an
    interior vertex (paper §IV-C). *)

val paths_capacity_through :
  Graph.t -> contribution -> Graph.vertex -> float
(** [sum over p in P*(i,j)|v of c(p)] — the numerator capacity of the
    split-selection rule. *)
