(** Undirected capacitated multigraph.

    The supply network of the recovery problem (paper §III): vertices are
    dense integers [0 .. nv-1]; each edge has a unique dense identifier, two
    endpoints and a nominal capacity.  The structure is immutable after
    construction — per-iteration state (residual capacities, broken sets,
    repair lists) lives outside the graph and is passed to algorithms as
    functions ([cap : edge_id -> float], [edge_ok : edge_id -> bool], ...),
    so one graph value can back many concurrent problem instances.

    Storage is by column: edge [e] is [src.(e)], [dst.(e)] and
    [capacity.(e)] (two int arrays and an unboxed float array),
    coordinates are an x and a y float array, and the adjacency is a CSR
    built from the edge columns.  An {!edge} record is built on demand by
    {!edge}, {!edges} and {!fold_edges}; per-arc kernels read the
    columns ({!columns}) and the CSR ({!csr}) instead. *)

type vertex = int
(** Dense vertex identifier in [0 .. nv-1]. *)

type edge_id = int
(** Dense edge identifier in [0 .. ne-1]. *)

type edge = {
  id : edge_id;
  u : vertex;
  v : vertex;
  capacity : float;  (** nominal (pre-failure) capacity *)
}
(** An undirected edge; [u < v] is not guaranteed (endpoints are stored as
    given), use {!other_end} to traverse. *)

type t
(** The graph. *)

val make :
  ?names:string array ->
  ?coords:(float * float) array ->
  n:int ->
  edges:(vertex * vertex * float) list ->
  unit ->
  t
(** [make ~n ~edges ()] builds a graph with [n] vertices and the given
    [(u, v, capacity)] edges (ids assigned in list order).  Optional [names]
    and [coords] arrays must have length [n] when given.  Self-loops are
    rejected; parallel edges are allowed.
    @raise Invalid_argument on out-of-range endpoints or arity mismatch. *)

val of_columns :
  ?names:string array ->
  ?coords:float array * float array ->
  n:int ->
  src:vertex array ->
  dst:vertex array ->
  capacity:float array ->
  unit ->
  t
(** Column form of {!make}: edge [i] is [(src.(i), dst.(i),
    capacity.(i))], and [coords] is the pair of x and y columns.  The
    graph keeps the arrays it is handed as its own storage, without a
    copy: the caller hands them over and must not write them afterwards.
    A parser or generator that collects its records in int and float
    arrays builds the graph from them with no tuple or record per edge.
    Same validation as {!make}, in the same order (vertex count, names,
    coords, then the three lengths must agree, then each edge in id
    order: endpoint range, self-loop, negative capacity). *)

val nv : t -> int
(** Number of vertices. *)

val ne : t -> int
(** Number of edges. *)

val edge : t -> edge_id -> edge
(** Edge record by id, built from the columns on each call (it
    allocates).  @raise Invalid_argument when out of range. *)

val edges : t -> edge list
(** All edges in id order, as fresh records. *)

val capacity : t -> edge_id -> float
(** Nominal capacity of an edge. *)

val endpoints : t -> edge_id -> vertex * vertex
(** Both endpoints of an edge. *)

val other_end : t -> edge_id -> vertex -> vertex
(** [other_end g e w] is the endpoint of [e] different from [w].
    @raise Invalid_argument if [w] is not an endpoint of [e]. *)

val incident : t -> vertex -> (vertex * edge_id) list
(** [(neighbor, edge)] pairs incident to a vertex.  Allocates a fresh
    list; traversal kernels should prefer {!iter_incident} /
    {!fold_incident}, which walk the packed CSR adjacency directly. *)

val iter_incident : t -> vertex -> (vertex -> edge_id -> unit) -> unit
(** [iter_incident g v f] calls [f neighbor edge] for every incidence of
    [v], in edge-id order, without allocating.  The adjacency is stored
    CSR-style (one offset array plus packed neighbor/edge arrays), so
    this is a tight int-array scan — the form every shortest-path /
    flow kernel consumes. *)

val fold_incident : t -> vertex -> ('a -> vertex -> edge_id -> 'a) -> 'a -> 'a
(** Allocation-free fold over the incidences of a vertex, in edge-id
    order. *)

val csr : t -> int array * int array * int array
(** [csr g] is [(off, nbr, eid)], the packed adjacency {!iter_incident}
    walks: the incidences of [v] are slots [off.(v) .. off.(v+1) - 1],
    slot [k] reaching [nbr.(k)] over edge [eid.(k)], each row in edge-id
    order.  The arrays are the graph's own storage, not copies — for
    kernels that keep per-slot cursors (Dinic); read them, never write
    them. *)

val columns : t -> vertex array * vertex array * float array
(** [columns g] is [(src, dst, capacity)], the edge columns: edge [e]
    joins [src.(e)] and [dst.(e)] with nominal capacity [capacity.(e)].
    Like {!csr}, the arrays are the graph's own storage, not copies — for
    per-arc kernels that must not build an {!edge} record per arc; read
    them, never write them. *)

val neighbors : t -> vertex -> vertex list
(** Adjacent vertices (with multiplicity for parallel edges). *)

val degree : t -> vertex -> int
(** Number of incident edges. *)

val max_degree : t -> int
(** [ηmax], the maximum vertex degree (0 for an edgeless graph). *)

val find_edge : t -> vertex -> vertex -> edge_id option
(** Some edge connecting the two vertices, if any. *)

val find_edges : t -> vertex -> vertex -> edge_id list
(** Every parallel edge connecting the two vertices. *)

val name : t -> vertex -> string
(** Vertex display name (defaults to ["v<i>"]). *)

val coord : t -> vertex -> (float * float) option
(** Planar coordinate of a vertex when the graph is embedded. *)

val has_coords : t -> bool
(** Whether every vertex carries a coordinate. *)

val vertices : t -> vertex list
(** [0; 1; ...; nv-1]. *)

val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over edges in id order, building each record on demand. *)

val total_capacity : t -> float
(** Sum of nominal capacities. *)

val to_dot : t -> string
(** Graphviz rendering (capacities as labels, coordinates as [pos]). *)

val to_edge_list : t -> string
(** One [u v capacity] line per edge (capacities as [%g]): a digest of
    the topology's structure, and the [edges] format of
    [recover topology]. *)
