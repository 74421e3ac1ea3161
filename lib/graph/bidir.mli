(** Exact point-to-point minimum-hop paths by balanced bidirectional BFS.

    A one-sided search for a hop-shortest path settles everything closer
    to the source than the target — on a 100k-vertex heavy-tailed graph
    that is most of the graph.  Growing BFS balls from both ends, always
    expanding the side whose frontier has fewer incidences to scan, meets
    in the middle after visiting a small fraction of it (the
    shortest-path sampler of Borassi & Natale's KADABRA, ESA 2016).

    The path returned is not just {e a} shortest path but exactly the one
    a whole-graph search would return under the chosen tie-break:

    + the two balls grow until they prove the hop distance [D];
    + the shortest-path DAG [S] — the vertices with
      [d_src + d_dst = D] — is recovered from the layer where the balls
      met (both labels exact there), propagating toward each end;
    + the original search is replayed over [S] alone, each vertex
      keeping the first (vertex, incidence slot) that reaches it.

    Every neighbour one hop closer to the source than a vertex of [S] is
    itself in [S], so the replay sees every candidate predecessor the
    whole-graph search would have seen, in the same order.

    {!reachable} runs step 1 alone: the first touch proves a working
    path, and a ball that runs out first has labelled its endpoint's
    whole working component, so a query costs about the smaller of the
    two balls — an endpoint cut off in a small island is answered after
    scanning only the island.

    Working state lives in per-domain pooled scratch ([Domain.DLS]), so
    concurrent searches on pool domains never share it.  Each {!path}
    call records [bidir.calls] and, batched once, the incidences it
    scanned in [bidir.scanned]; {!reachable} records its own
    [bidir.reach_calls] and [bidir.reach_scanned]. *)

(** Which whole-graph search the result reproduces. *)
type tie =
  | By_id
      (** {!Dijkstra.shortest_path} with unit lengths: equal-distance
          vertices settle in vertex-id order, relaxation is strict-[<]. *)
  | Fifo  (** A FIFO breadth-first search with first-discovery parents. *)

val path :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  tie:tie ->
  Graph.t ->
  Graph.vertex ->
  Graph.vertex ->
  Graph.edge_id list option
(** [path ~tie g src dst] is a minimum-hop working path as an edge
    sequence from [src] to [dst]: [Some []] when they coincide and are
    ok, [None] when either endpoint fails [vertex_ok] or no working path
    connects them.  Edges are usable when [edge_ok] holds and both
    endpoints pass [vertex_ok]; both predicates default to accepting
    everything and must be pure for the duration of the call.
    @raise Invalid_argument on an out-of-range endpoint. *)

val reachable :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  Graph.t ->
  Graph.vertex ->
  Graph.vertex ->
  bool
(** [reachable g src dst] is [path ~tie g src dst <> None] (for either
    tie), decided by step 1 alone: same predicates, same defaults.
    @raise Invalid_argument on an out-of-range endpoint. *)
