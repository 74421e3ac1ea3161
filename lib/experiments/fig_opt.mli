(** Fig OPT — exact-solver acceleration study on mid-size Gaussian
    scenarios (Bell-Canada, 5 demand pairs, 10 flow units, variances
    80–140): the full pipeline (LP presolve + Steiner-forest cuts + dual
    steepest-edge pricing) against the un-accelerated baseline
    (presolve off, cuts off, Dantzig pricing) under the same
    branch-and-bound node budget.

    Two tables: (a) proved-optimality rate, average node count and the
    number of scenarios that {e flip} from budget-exhausted to proved;
    (b) the anytime bound gap [objective - bound] and wall time. *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  runs:int ->
  unit ->
  Netrec_util.Table.t list
(** Produce both tables (one row per variance; both pipelines share a
    fixed 600-node budget). *)
