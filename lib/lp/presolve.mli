(** LP presolve / postsolve over the {!Lp} model.

    [run] applies reduction passes to a fixpoint (bounded rounds):

    - substitution of fixed variables into rows (objective offset kept),
    - empty/singleton row elimination (singletons become bounds),
    - activity-based row classification: provably infeasible, redundant
      ([maxact <= rhs], exact — no tolerance, so the reduced feasible
      region never grows), and forcing rows (satisfiable only at one
      activity extreme; their variables get fixed),
    - implied bound strengthening from row activities, relaxed outward by
      a safety margin, with inward rounding for declared integers,
    - dominated-column fixing (a variable outside all equalities whose
      move toward a bound loosens every row and does not worsen the
      objective),
    - coefficient tightening on binary columns of inequality rows
      (integer-region preserving; the LP relaxation only tightens).

    Every reduction remains valid in every sub-box of the variable-bound
    box, so branch-and-bound may impose bound overrides (mapped through
    {!of_orig}) on the reduced problem: see {!Milp}.  For pure LPs the
    optimal value is preserved exactly; for MILPs pass the integer
    variables via [~integer] so the integer-only passes know their
    domain. *)

type stats = {
  rounds : int;  (** fixpoint rounds executed *)
  vars_fixed : int;
  rows_dropped : int;
  bounds_tightened : int;
  coefs_tightened : int;
}

type t = {
  orig_nv : int;  (** variable count of the original problem *)
  infeasible : bool;
      (** presolve proved the problem infeasible; [reduced] is then a
          trivial empty problem and must not be solved *)
  reduced : Lp.problem;
  keep : int array;  (** reduced variable -> original variable *)
  of_orig : int array;
      (** original variable -> reduced variable, [-1] when eliminated *)
  fixed : float array;
      (** original-indexed elimination values, meaningful where
          [of_orig.(v) = -1] *)
  obj_offset : float;
      (** objective contribution of the eliminated variables, in the
          original sense: full objective = reduced objective + offset *)
  stats : stats;
}

val run : ?integer:Lp.var list -> Lp.problem -> t
(** Presolve [p] (which is not mutated).  [integer] lists variables that
    take integer values in the intended problem; it enables inward bound
    rounding and binary coefficient tightening for exactly those
    variables.  Counters: ["presolve.runs"], ["presolve.vars_fixed"],
    ["presolve.rows_dropped"], ["presolve.bounds_tightened"],
    ["presolve.coefs_tightened"], ["presolve.infeasible"]. *)

val postsolve : t -> float array -> float array
(** Lift a reduced-space value vector (length [nvars reduced]) back to
    the full original variable space (length [orig_nv]): kept variables
    copy through, eliminated variables take their fixed values. *)

val lift_solution : t -> Lp.solution -> Lp.solution
(** [postsolve] applied to a solution of {!reduced}: values are lifted
    and, when optimal, the objective gains {!obj_offset}. *)

val solve : ?budget:Netrec_resilience.Budget.t -> Lp.problem -> Lp.solution
(** Presolve a pure LP, solve the reduced problem with {!Lp.solve},
    postsolve.  While {!Tuning.presolve_enabled} is off this is exactly
    [Lp.solve].  A presolve-detected infeasibility returns [Infeasible]
    without invoking the simplex. *)
