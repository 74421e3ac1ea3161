(** Demand-graph construction for the experiments.

    The paper selects demand pairs "to be far apart in the supply graph …
    randomly … among those which have a hop distance greater than or
    equal to half the diameter of the network" (§VII-A), each with a
    common flow requirement.  Selection happens on the pre-failure
    topology. *)

val far_pairs :
  rng:Netrec_util.Rng.t ->
  count:int ->
  amount:float ->
  Graph.t ->
  Netrec_flow.Commodity.t list
(** [far_pairs ~rng ~count ~amount g] draws [count] distinct unordered
    vertex pairs with hop distance >= ceil(diameter/2), uniformly, each
    with demand [amount].  Falls back to the farthest available pairs if
    fewer than [count] pairs satisfy the threshold.  The eligible pairs
    are listed once per topology (each domain keeps the table of the
    last graph it drew from, by physical identity) and every draw
    shuffles a copy, so a redraw costs no BFS.  Beyond 4096 vertices
    the exhaustive pair enumeration is replaced by BFS-row sampling
    against the {!Metrics.pseudo_diameter} bound, so the generator
    stays linear-ish on xl synthetic topologies.
    @raise Invalid_argument when the graph has fewer than 2 vertices. *)

val distinct_endpoint_pairs :
  rng:Netrec_util.Rng.t ->
  count:int ->
  amount:float ->
  Graph.t ->
  Netrec_flow.Commodity.t list
(** Like {!far_pairs} but additionally forces all [2 * count] endpoints
    to be distinct vertices — used on the large CAIDA topology where
    endpoint collisions would make series noisy. *)

val feasible :
  rng:Netrec_util.Rng.t ->
  ?distinct:bool ->
  tries:int ->
  count:int ->
  amount:float ->
  Graph.t ->
  Netrec_flow.Commodity.t list option
(** Redraw {!far_pairs} ({!distinct_endpoint_pairs} with [~distinct:true];
    default [false]) until a draw of exactly [count] pairs is routable on
    the {e intact} supply graph ({!Netrec_flow.Oracle.routable} at
    nominal capacities), so that every recovery problem posed to the
    algorithms is solvable — as in the paper.  [None] after [tries]
    draws without one. *)
