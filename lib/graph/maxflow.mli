(** Single-commodity maximum flow (Dinic's algorithm) on the undirected
    supply graph.

    Used by ISP for the demand-selection rule of §IV-C (the maximum flow
    [f*(i,j)] between demand endpoints on the full residual graph) and by
    the pruning step (Thm. 3: the amount prunable over a bubble is the
    bubble's max flow capped by the demand).  Capacities default to the
    graph's nominal capacities; pass [cap] to use residual ones.

    A call walks the graph's own adjacency ({!Graph.csr}) and keeps its
    residuals, levels, cursors and BFS queue in per-domain scratch that
    is grown once, so its setup is O(n + m) of array writes and no
    allocation ({!max_flow} allocates its [edge_flow]).  Calls on
    different domains never share state; the callbacks ([vertex_ok],
    [edge_ok], [cap]) must be pure and must not call this module. *)

type result = {
  value : float;  (** value of the maximum flow *)
  edge_flow : float array;
      (** signed net flow per edge id: positive from [u] to [v] as stored in
          the graph's edge record *)
}

val max_flow :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?cap:(Graph.edge_id -> float) ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  result
(** Maximum [source]→[sink] flow over the admissible subgraph.  Returns a
    zero flow when source and sink coincide or are disconnected.
    @raise Invalid_argument on out-of-range vertices or negative capacity. *)

val max_flow_value :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?cap:(Graph.edge_id -> float) ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  float
(** Just the value of {!max_flow}. *)

val min_cut :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?cap:(Graph.edge_id -> float) ->
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  Graph.vertex list * Graph.edge_id list
(** The source side of a minimum cut and the saturated edges crossing it
    (by max-flow/min-cut duality their capacities sum to the flow value). *)

val decompose :
  Graph.t ->
  source:Graph.vertex ->
  sink:Graph.vertex ->
  result ->
  (Graph.edge_id list * float) list
(** Decompose a flow into at most [ne] source→sink paths with positive
    amounts (flow on cycles, if any, is dropped). *)
