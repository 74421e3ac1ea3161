(** Breadth-first distances and connected components with vertex/edge
    availability predicates (point-to-point reachability and hop paths
    are {!Bidir}'s).

    The predicates express the "working subgraph" of a partially destroyed
    network: algorithms see only vertices with [vertex_ok] and edges with
    [edge_ok] whose two endpoints are also ok.  Both default to accepting
    everything. *)

val bfs_dist :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  Graph.t ->
  Graph.vertex ->
  int array
(** Hop distance from the source to every vertex ([max_int] when
    unreachable, including the source itself when [vertex_ok src] fails). *)

val component_ids :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  Graph.t ->
  int array
(** Component label of every vertex of the working subgraph, in one
    O(n + e) pass: components are numbered [0, 1, ...] in order of their
    smallest vertex; vertices failing [vertex_ok] get [-1].  Two vertices
    are connected iff they share a label [>= 0]. *)

val components :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  Graph.t ->
  Graph.vertex list list
(** Connected components of the working subgraph (vertices failing
    [vertex_ok] appear in no component), ordered by smallest vertex,
    each in ascending order — the buckets of {!component_ids}. *)

val giant_component :
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  Graph.t ->
  Graph.vertex list
(** The largest component ([[]] for an empty working subgraph). *)

val is_connected : Graph.t -> bool
(** Whether the full graph is connected ([true] for graphs with at most one
    vertex). *)
