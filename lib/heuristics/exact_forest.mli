(** Exact MinR for connectivity-only instances via optimal Steiner
    forests (Dreyfus–Wagner dynamic programming).

    The paper's scalability scenario (§VII-B, Fig. 7) uses instances that
    are "an instance of the Steiner Forest problem": complete
    destruction, unit repair costs, unit demands, and link capacities so
    large that capacity never binds.  There the optimal recovery is a
    vertex-disjoint family of Steiner trees, and with unit costs its
    total repair count is

    [min over partitions of the demand pairs of
       sum over groups (2 * steiner_tree_edges(group) + 1)]

    because a tree with [E] edges repairs [E] edges and [E + 1] vertices.
    Steiner-tree edge counts for every terminal subset come from one
    Dreyfus–Wagner run ([O(3^k n + 2^k n^2)] for [k] terminals), and the
    outer minimization enumerates set partitions (pairs sharing an
    endpoint are pre-merged, preserving component disjointness).

    This gives the true OPT for Fig. 7 where the MILP would need tens of
    hours — matching how the paper describes the same instances. *)

val steiner_tree_hops : Graph.t -> terminals:Graph.vertex list -> int option
(** Minimum number of edges of a connected subgraph spanning the
    terminals ([Some 0] for fewer than two distinct terminals; [None]
    when they are not mutually connected).  Practical up to ~16
    terminals. *)

val optimal_total_repairs :
  Graph.t -> pairs:(Graph.vertex * Graph.vertex) list -> int option
(** Exact MinR repair count for a connectivity-only complete-destruction
    unit-cost instance with the given demand pairs.  [None] when some
    pair is disconnected or there are more than ~8 pairs (the partition
    enumeration would explode).  Counts one [forest.tree_solves] per
    distinct terminal set it solves. *)
