(** Single-source shortest paths with arbitrary non-negative edge lengths.

    The length is a function of the edge id, which lets callers plug in the
    dynamic repair-aware path metric of the paper (§IV-D):
    [l(e) = (const + ke + (kv_u + kv_v)/2) / c(e)], re-evaluated every
    iteration as repairs and prunes change costs and residual capacities.

    The kernel keeps its working arrays (distances, predecessors, heap) in
    per-domain pooled scratch: repeated calls on same-sized graphs do not
    re-allocate, and concurrent calls from different domains never share
    state.  Every vertex is settled at most once per search, and ties
    between equal-distance vertices are broken by vertex id, so the
    predecessor tree is a deterministic function of the length metric
    alone.

    Every entry point runs one search loop: it walks the graph's CSR rows
    ({!Graph.csr}, edge-id order), relaxes with a strict [<], and pops
    (distance, vertex id) minima from a binary heap.  {!run},
    {!distances} and {!shortest_path} seed it with one source;
    {!within} seeds it with several and stops it at a distance bound.
    Each call counts [dijkstra.calls] and, batched, [dijkstra.settled]. *)

val run :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?target:Graph.vertex ->
  length:(Graph.edge_id -> float) ->
  Graph.t ->
  Graph.vertex ->
  float array * int array
(** [run ~length g src] is [(dist, pred)]: the shortest-path length to every
    vertex ([infinity] when unreachable) and the edge id used to reach it
    ([-1] for the source and unreachable vertices).  With [?target] the
    search stops as soon as that vertex is settled — entries for vertices
    never reached before the stop are [infinity] / [-1].
    @raise Invalid_argument on a negative edge length or out-of-range
    source/target. *)

val distances :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?target:Graph.vertex ->
  length:(Graph.edge_id -> float) ->
  Graph.t ->
  Graph.vertex ->
  float array
(** First component of {!run}. *)

val shortest_path :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  length:(Graph.edge_id -> float) ->
  Graph.t ->
  Graph.vertex ->
  Graph.vertex ->
  Graph.edge_id list option
(** Shortest path between two vertices as an edge sequence (source to
    target; [Some []] when they coincide and are ok).  Runs entirely on
    pooled scratch and stops at the target, so point-to-point queries do
    not pay for settling the whole graph. *)

val within :
  ?edge_ok:(Graph.edge_id -> bool) ->
  bound:float ->
  length:(Graph.edge_id -> float) ->
  Graph.t ->
  Graph.vertex list ->
  float array
(** [within ~bound ~length g sources] is the distance from the nearest
    of [sources] (each at distance 0) to every vertex, found by the same
    search as {!run}, which stops before it settles a vertex farther than
    [bound].  An entry [<= bound] is exact.  Any other entry is a lower
    bound greater than [bound]: the smallest distance still queued when
    the search stopped, or [infinity] when nothing was queued (the vertex
    is unreachable).  Settles exactly the vertices within [bound].  The
    repair-aware centrality cache uses it to measure how far a repair's
    effect can reach (DESIGN §11).
    @raise Invalid_argument on a negative edge length or an out-of-range
    source. *)
