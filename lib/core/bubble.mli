(** Bubble detection and the prune action (paper Def. 2 and Thm. 3).

    A bubble for demand [h] is a vertex set [S] containing no demand
    endpoint other than [s_h, t_h] such that every {e supply-graph} edge
    leaving [S] is incident to [s_h] or [t_h].  Pruning routes
    [min (f*, d_h)] units over working paths inside a bubble; by Thm. 3
    this never compromises routability nor worsens the final repair
    count.

    The maximal bubble has a closed form.  Call a component of
    [G - {s_h, t_h}] {e clean} when it touches [s_h] or [t_h] and holds
    no other demand's endpoint.  The bubble is [{s_h, t_h}] plus every
    clean component, and it exists iff an edge joins [s_h] and [t_h] or
    one clean component touches both.  This is the fixpoint of the
    paper's modified BFS hardened into an iterative shrink (explore
    from [s_h] avoiding other endpoints, drop interior vertices with a
    full-graph neighbour outside the set, repeat): a component holding
    another endpoint erodes away completely, a clean one is never
    touched (DESIGN §4).  One labelling pass over
    [G - {s_h, t_h}] computes it; the labelling depends on the
    graph and the unordered pair only, so a {!Cache} keeps it for a
    whole solver run.  Counters: [bubble.finds] per bubble asked for,
    [bubble.labels] per labelling pass (a cache miss).  The working
    paths used for routing live inside the bubble. *)

module Cache : sig
  type t
  (** [G - {s, t}] labellings by unordered demand pair, for one graph:
      O(n) words per pair. *)

  val create : unit -> t
  (** Fresh empty cache; use one per solver run. *)

  val retain : t -> Netrec_flow.Commodity.t list -> unit
  (** Drop the labels of every pair no demand of the list has, which
      keeps the cache within O(live pairs × n). *)
end

val find :
  ?cache:Cache.t ->
  Graph.t ->
  demands:Netrec_flow.Commodity.t list ->
  Netrec_flow.Commodity.t ->
  Graph.vertex list option
(** [find g ~demands h] returns the maximal bubble for [h] — computed on
    the full supply graph, broken elements included, since Def. 2's cut
    condition ranges over all of [E] — as its sorted member list, both
    endpoints included, or [None].  [demands] is the full current
    demand list (used for the "no other endpoint" condition); [h] itself
    may appear in it.  [?cache] (built on [g]) reuses the pair's labels
    instead of labelling afresh; the answer is the same. *)

type prune = {
  amount : float;  (** [min (f*, d_h)], > 0 *)
  paths : (Paths.path * float) list;  (** working paths carrying it *)
}

val prune :
  ?cache:Cache.t ->
  working_vertex:(Graph.vertex -> bool) ->
  working_edge:(Graph.edge_id -> bool) ->
  cap:(Graph.edge_id -> float) ->
  Graph.t ->
  demands:Netrec_flow.Commodity.t list ->
  Netrec_flow.Commodity.t ->
  prune option
(** Attempt to prune demand [h]: find a bubble, compute the max working
    flow inside it between the endpoints, and decompose it into paths.
    [None] when no bubble exists or the bubble carries no flow.  With
    [?cache] (built on [g]) a known pair costs O(|demands|) before the
    flow, and the flow reads bubble membership off the labels. *)
