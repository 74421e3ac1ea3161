(** Structural graph metrics used for scenario construction and reporting.

    The experiment harness samples demand pairs whose hop distance is at
    least half the diameter (paper §VII-A), which needs all-pairs hop
    distances on the pre-failure topology. *)

val hop_diameter : Graph.t -> int
(** Largest finite hop distance between two vertices (0 for graphs with at
    most one vertex; disconnected pairs are ignored).  O(nv * (nv + ne))
    — exact, intended for the paper-sized topologies. *)

val pseudo_diameter : Graph.t -> int
(** Double-sweep BFS lower bound on {!hop_diameter} (exact on trees,
    tight in practice on the scale-free synthetics).  Two BFS passes, so
    it stays usable on 10^5-10^6-vertex graphs. *)

val hop_distance : Graph.t -> Graph.vertex -> Graph.vertex -> int
(** Hop distance ([max_int] when disconnected). *)

val average_degree : Graph.t -> float
(** [2 ne / nv] (0 for the empty graph). *)

val density : Graph.t -> float
(** [ne / (nv choose 2)] (0 when nv < 2). *)

val degree_histogram : Graph.t -> (int * int) list
(** [(degree, count)] pairs in increasing degree order. *)

val summary : Graph.t -> string
(** One-line human-readable summary (nv, ne, degree stats, diameter).
    Reports the exact {!hop_diameter} up to 2048 vertices and the
    {!pseudo_diameter} bound (as [diameter>=]) beyond, so printing a
    topology header never dominates an xl run. *)

val betweenness : Graph.t -> float array
(** Classic (unweighted) betweenness centrality via Brandes' algorithm
    (Brandes 2001 — the paper's reference [13]): for each vertex [v] the
    sum over unordered pairs [(s,t)], [s ≠ v ≠ t], of the fraction of
    shortest [s]-[t] paths through [v].  This is the metric the paper's
    demand-based centrality (§IV-B) extends with capacities and demands;
    exposed for comparison and ablation.  O(nv * ne). *)
