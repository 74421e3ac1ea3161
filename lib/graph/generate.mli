(** Random and structured topology generators.

    All generators take an explicit {!Netrec_util.Rng.t} so topologies are
    reproducible from experiment seeds.  Generated vertices carry planar
    coordinates (required by the geographically-correlated failure model):
    random generators place vertices uniformly in the unit square unless
    they have a natural embedding (grid, ring). *)

val erdos_renyi :
  rng:Netrec_util.Rng.t -> n:int -> p:float -> capacity:float -> Graph.t
(** G(n, p) with every edge given the same [capacity] (paper §VII-B uses
    n = 100, unit demands and capacity 1000).  Coordinates are uniform in
    the unit square. *)

val preferential_attachment :
  rng:Netrec_util.Rng.t -> n:int -> extra_edges:int -> capacity:float -> Graph.t
(** A connected heavy-tailed topology: a preferential-attachment tree on
    [n] vertices plus [extra_edges] additional degree-proportional edges
    (no duplicates, no self-loops).  With n = 825 and extra_edges = 194
    this matches the size of the CAIDA AS28717 giant component
    (825 nodes, 1018 edges).  @raise Invalid_argument when [n < 2]. *)

val scale_free :
  rng:Netrec_util.Rng.t ->
  ?jitter:float ->
  n:int ->
  m:int ->
  capacity:float ->
  unit ->
  Graph.t
(** Barabási–Albert scale-free topology at scale: [n] vertices, each new
    vertex attaching to [m] distinct degree-proportional targets, built in
    O(n * m) via a flat endpoint multiset — the constructor for the
    50k–1M-node synthetic backbones of the xl experiments.  Seeded and
    deterministic: the same [rng] state yields a byte-identical graph.
    Always connected (grows from a seed path on [m + 1] vertices).
    Coordinates are geographic: seed vertices are uniform in the unit
    square and each later vertex is placed a Gaussian [jitter] (default
    0.03, clamped to the square) away from its first attachment target,
    so edges are short and the Gaussian disaster model breaks a
    topologically local region.  @raise Invalid_argument when [n < 2] or
    [m < 1]. *)

val grid : width:int -> height:int -> capacity:float -> Graph.t
(** [width x height] mesh with unit-spaced coordinates. *)

val ring : n:int -> capacity:float -> Graph.t
(** Cycle on [n >= 3] vertices placed on a circle. *)

val complete : n:int -> capacity:float -> Graph.t
(** Clique on [n] vertices. *)

val largest_component : Graph.t -> Graph.t
(** Restriction of a graph to its largest connected component (vertices
    renumbered densely, coordinates and capacities preserved). *)
