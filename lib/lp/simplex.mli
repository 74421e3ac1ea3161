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
    current across pivots with the Forrest–Goldfarb update and the row
    maximizing [infeasibility^2 / weight] leaves (["simplex.dse_pivots"],
    ["simplex.dse_resets"]).  After a run of degenerate dual steps the
    selection falls back to the plain most-infeasible rule, which is also
    what [~pricing:Dantzig] selects unconditionally.

    Cost per pivot: the inverse is stored dense (m x m), but the
    product-form update, the steepest-edge update and the Gauss–Jordan
    rebuild walk only the nonzeros of the pivot row, so a pivot costs
    O(m + k·z), for the k rows the update touches and the z nonzeros of
    the pivot row, rather than O(k·m).  Skipping exact zeros leaves every
    nonzero of the inverse bit-identical to the dense loops, so every
    pivot is the one those loops would make.  An exact re-initialization
    of the weights stays O(m^2), the rebuild's two m x m scratch matrices
    are allocated on an engine's first rebuild, and
    ["simplex.cold_solves"], ["simplex.cold_pivots"] and
    ["simplex.refactors"] count the solves started from the slack basis,
    the basis pivots made in them and the successful rebuilds. *)

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

(**/**)

(** Internal: the row kernels behind the basis-inverse update and the
    Gauss–Jordan rebuild, on row-major [m*m] float arrays.  Exposed so
    that tests can hold them to the dense loops they replace. *)
module Kernel : sig
  val nonzeros : float array -> off:int -> len:int -> int array -> int
  (** [nonzeros a ~off ~len idx] writes the ascending positions [k < len]
      with [a.(off + k) <> 0.0] to [idx] and returns their count. *)

  val tau : float array -> off_i:int -> off_r:int -> int array -> int -> float
  (** [tau a ~off_i ~off_r idx nnz]: the dot product of the rows at
      [off_i] and [off_r] over the [nnz] positions listed in [idx]. *)

  val eta_update :
    float array -> m:int -> r:int -> u:float array -> int array -> int -> unit
  (** [eta_update binv ~m ~r ~u idx nnz]: the product-form update of
      [binv] for a pivot in row [r] with column [u], given row [r]'s
      nonzeros as listed by {!nonzeros}. *)

  val eliminate :
    float array ->
    float array ->
    m:int ->
    c:int ->
    inv:float ->
    int array ->
    int array ->
    unit
  (** [eliminate dense inv2 ~m ~c ~inv nz nz2]: one Gauss–Jordan step on
      column [c], with the pivot in row [c] and [inv] its reciprocal.
      [nz] and [nz2] are scratch of length [m]. *)
end
