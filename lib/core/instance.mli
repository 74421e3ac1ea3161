(** Recovery-problem instances and solutions.

    An instance is the paper's MinR input (§III): a supply graph, a
    demand graph, the broken sets [(VB, EB)] and per-element repair
    costs.  A solution is a set of repairs plus (when the algorithm
    provides one) an explicit routing. *)

module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
module Routing = Netrec_flow.Routing

type t = {
  graph : Graph.t;
  demands : Commodity.t list;
  failure : Failure.t;
  vertex_cost : float array;  (** [k^v_i], length [Graph.nv] *)
  edge_cost : float array;  (** [k^e_ij], length [Graph.ne] *)
}

val make :
  ?vertex_cost:float array ->
  ?edge_cost:float array ->
  graph:Graph.t ->
  demands:Commodity.t list ->
  failure:Failure.t ->
  unit ->
  t
(** Build an instance; costs default to 1 per element (the paper's
    homogeneous setting).  @raise Invalid_argument on arity mismatches,
    a demand endpoint out of range, or non-positive demand amounts. *)

val feasible_when_repaired : t -> bool
(** Whether the full demand is routable on the {e undamaged} supply graph
    — the precondition for any recovery strategy to exist. *)

type solution = {
  repaired_vertices : Graph.vertex list;
  repaired_edges : Graph.edge_id list;
  routing : Routing.t;  (** may be empty for heuristics without routing *)
}

val empty_solution : solution
(** No repairs, no routing. *)

val repair_cost : t -> solution -> float
(** Total cost of the solution's repairs under the instance's costs. *)

val vertex_repairs : solution -> int
(** Number of repaired vertices (Fig. 4(b) series). *)

val edge_repairs : solution -> int
(** Number of repaired edges (Fig. 4(a) series). *)

val total_repairs : solution -> int
(** Vertices + edges (Figs. 3, 4(c), 5(a), 6(a), 7(b), 9(a) series). *)

val repair_all : t -> solution
(** The trivial ALL baseline: repair every broken element. *)

val with_candidate_links :
  t -> (Graph.vertex * Graph.vertex * float * float) list -> t * Graph.edge_id list
(** Model the deployment of {e new} links (paper §III, footnote 1): each
    [(u, v, capacity, install_cost)] becomes a supply edge that starts
    out "broken" with repair cost equal to its installation cost, so
    every algorithm can choose between repairing old infrastructure and
    building new.  Returns the extended instance and the candidate edge
    ids (in input order).  The original instance is unchanged.
    @raise Invalid_argument on out-of-range endpoints. *)
