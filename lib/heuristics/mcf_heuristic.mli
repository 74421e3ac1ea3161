(** The multicommodity-flow relaxation heuristic (paper §VI-A, system (8)
    and Fig. 3).

    Relaxing MinR's binaries and minimizing the flow routed over broken
    edges yields a polynomial problem whose optimal solutions span a wide
    range of repair counts.  The paper plots the best (MCB) and worst
    (MCW) optima; finding either exactly is NP-hard, so this module
    reports certified proxies:

    - [support]: the repairs used by one optimal vertex solution of (8);
    - [mcb]: that support after the redundancy postpass (a feasible
      solution at most as large as the true MCB is small — an upper
      bound on MCB that tracks it closely);
    - [mcw]: the support of a second LP that, constrained to the optimal
      cost, spreads flow across as many broken edges as possible — a
      lower bound on the true worst optimum. *)

open Netrec_core

type result = {
  support : Instance.solution;
  mcb : Instance.solution;
  mcw : Instance.solution;
  lp_objective : float;  (** optimal value of system (8) *)
}

val solve : ?budget:Netrec_resilience.Budget.t -> Instance.t -> result option
(** [None] when the LP is infeasible (demand exceeds the intact network),
    exceeds 8000 flow variables, hits the simplex limit or the
    cooperative [budget] (default unlimited) trips mid-solve. *)
