(** Sparse bounded-variable revised simplex engine.

    Internal engine behind {!Lp.solve} and {!Lp.warm_solve}; exposed for
    direct use and testing.  The problem is

      min c'x   subject to   A x {<=,>=,=} b,   l <= x <= u

    with [A] given in CSR form and per-variable bounds handled natively by
    the ratio test (nonbasic-at-bound technique) — bounds never become
    constraint rows.  The engine keeps an explicit dense inverse of the
    current basis, so a solved instance can be {e re-solved} after a bounds
    change (branch-and-bound node) by the dual simplex without repeating
    phase 1: reduced costs depend on the basis and costs only, never on the
    bounds, so the optimal basis of the parent node is dual feasible for
    every child.

    Anti-cycling: Dantzig pricing switches to Bland's rule after a run of
    degenerate steps, which guarantees termination.

    Dual pricing: the leaving row is chosen by dual steepest edge by
    default — weights approximating [||row i of B^-1||^2] are kept
    current across pivots with the Forrest–Goldfarb update (the explicit
    dense inverse makes both the update and the exact re-initialization
    O(m^2)) and the row maximizing [infeasibility^2 / weight] leaves
    (["simplex.dse_pivots"], ["simplex.dse_resets"]).  After a run of
    degenerate dual steps the selection falls back to the plain
    most-infeasible rule, which is also what [~pricing:Dantzig]
    selects unconditionally. *)

type relation = Le | Ge | Eq

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type std = {
  ncols : int;  (** number of structural variables *)
  nrows : int;  (** number of constraint rows *)
  row_off : int array;
      (** CSR row offsets, length [nrows + 1]; row [i]'s entries live at
          positions [row_off.(i) .. row_off.(i+1) - 1] of [cols]/[coefs] *)
  cols : int array;  (** CSR column indices, each [< ncols] *)
  coefs : float array;  (** CSR coefficients, same length as [cols] *)
  rels : relation array;  (** row senses, length [nrows] *)
  rhs : float array;  (** right-hand sides, length [nrows] *)
  costs : float array;  (** minimization costs, length [ncols] *)
  lb : float array;
      (** lower bounds, length [ncols]; [neg_infinity] allowed when the
          matching upper bound is finite *)
  ub : float array;  (** upper bounds, length [ncols]; [infinity] allowed *)
}

type outcome = {
  status : status;
  objective : float;  (** meaningful only when [status = Optimal] *)
  values : float array;  (** length [ncols]; zeros unless [Optimal] *)
  pivots : int;
      (** work units consumed by this solve: basis pivots plus bound
          flips; basis pivots are also accumulated on the global
          ["simplex.pivots"] counter of {!Netrec_obs.Obs}, bound flips on
          ["simplex.bound_flips"] *)
  limited : Netrec_resilience.Budget.reason option;
      (** [Some _] iff [status = Iteration_limit]: the structured reason
          the solve was cut short — the cooperative budget's deadline or
          work cap when it tripped, otherwise the [max_pivots] cap *)
}

type t
(** A reusable engine instance holding the factorized basis.  Not
    thread-safe: share engines within a domain only. *)

val create : ?pricing:Tuning.pricing -> std -> t
(** Build an engine (CSC transpose, slack/artificial column layout, basis
    workspace).  No solving happens here.  [pricing] (default
    {!Tuning.default_pricing}) selects the dual leaving-row rule.
    @raise Invalid_argument on ragged CSR arrays, out-of-range column
    indices, [lb > ub], or a variable with no finite bound at all. *)

val set_pricing : t -> Tuning.pricing -> unit
(** Switch the dual pricing rule of an existing engine. *)

val solve :
  ?budget:Netrec_resilience.Budget.t -> ?max_pivots:int -> t -> outcome
(** Cold solve from the slack basis: lazy phase 1 (artificials only on
    rows whose slack start is infeasible; ["simplex.phase1_skipped"]
    counts solves that needed none), then phase 2 on the real costs.
    [budget] (default unlimited) is checked once per pivot or bound flip;
    [max_pivots] (default 200_000) bounds the same work units. *)

val resolve :
  ?budget:Netrec_resilience.Budget.t ->
  ?max_pivots:int ->
  lb:float array ->
  ub:float array ->
  t ->
  outcome
(** Re-solve after replacing the structural variable bounds (lengths
    [ncols]) — the branch-and-bound warm start.  When the previous solve
    on this engine ended [Optimal] (or a previous [resolve] proved
    [Infeasible]), the optimal basis is reused: basic values are
    recomputed under the new bounds and the dual simplex restores primal
    feasibility, skipping phase 1 entirely (["simplex.warm_starts"],
    ["simplex.phase1_skipped"]).  Otherwise this falls back to a cold
    solve under the new bounds. *)
