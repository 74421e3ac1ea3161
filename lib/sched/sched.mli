(** Capacity-constrained temporal recovery scheduling.

    The paper computes {e what} to repair in one shot; this subsystem
    orders the repair set over {e rounds} under crew/budget capacity —
    the progressive-recovery extension of ROADMAP item 3 (Gutfraind et
    al., arXiv:1207.2799; competitive percolation, arXiv:1903.00689).
    Per round at most [crews] elements (and optionally at most
    [round_budget] repair cost) are executed; the objective is the
    flow-weighted {e area under the recovery curve}: the mean, over
    rounds, of the exact satisfiable demand fraction once that round
    completes.

    Three schedulers share one evaluator
    ({!Netrec_core.Schedule.prefix_satisfactions}, so their AUCs are
    eps-consistent and directly comparable):

    - {!greedy}: the marginal-gain order of [Schedule.greedy_order],
      chunked into capacity-respecting rounds;
    - {!local_search}: best-improvement swap/insert search over the
      flat order, deterministically parallel (a {!Pool} solves the
      prefix sets the move neighborhood needs; ties break on the lowest
      move index, so [-j 1] and [-j N] return byte-identical plans) and
      budget-aware;
    - {!oracle}: an exact time-indexed MILP on {!Netrec_lp} (binary
      [z_{e,t}] = element [e] repaired in round [t], per-round
      multicommodity-flow blocks coupled through cumulative
      availability), solved by the warm-started branch-and-bound — the
      ground truth that makes greedy/local-search {e regret} a
      measurable, gateable number on small instances.

    Every round prefix of a plan can be certified against the instance
    with {!certify_rounds} ({!Netrec_check.Check.certify}), so a
    scheduler bug that "repairs" an unbroken element cannot hide inside
    a good-looking curve.

    Telemetry (all under [sched.*]): counters [sched.plans],
    [sched.rounds], [sched.evals] (round prefixes scored),
    [sched.eval_cache_hits] (of those, the ones {!local_search} answered
    from its memo without a solve), [sched.ls_passes],
    [sched.moves_tried], [sched.moves_applied], [sched.oracle_solves],
    [sched.oracle_nodes], [sched.oracle_proved]; histogram
    [sched.round_satisfaction]; progress events [sched.round] (fields
    [round], [satisfied], [cost]) — the recovery-curve stream consumed
    by [fig-sched] and gnuplot. *)

module Instance = Netrec_core.Instance
module Schedule = Netrec_core.Schedule
module Budget = Netrec_resilience.Budget
module Pool = Netrec_parallel.Pool
module Check = Netrec_check.Check

type element = Schedule.element

type capacity = private {
  crews : int;  (** max elements repaired per round (>= 1) *)
  round_budget : float option;
      (** max repair cost per round; an element whose own cost exceeds
          the budget still gets a round of its own (progress guarantee) *)
}

val capacity : ?round_budget:float -> crews:int -> unit -> capacity
(** @raise Invalid_argument when [crews < 1] or [round_budget <= 0]. *)

type round = {
  elements : element list;  (** repairs executed this round, in order *)
  cost : float;  (** total repair cost of the round *)
  satisfied : float;
      (** exact satisfiable demand fraction once the round completes *)
}

type plan = {
  rounds : round list;
  baseline : float;
      (** satisfaction of the unrepaired instance (round 0 of the curve) *)
  auc : float;
      (** mean of [satisfied] over rounds — the area under the recovery
          curve normalized by this plan's own horizon; an empty plan
          reports [baseline].  Plans over the same element set and a
          pure-crews capacity share the same horizon, making their AUCs
          directly comparable (the gate setting). *)
}

val order_of : plan -> element list
(** The plan's rounds concatenated back into a flat repair order. *)

val of_order :
  ?cap:capacity -> Instance.t -> element list -> (plan, Schedule.order_error) result
(** Chunk a caller-chosen flat order into capacity-respecting rounds
    (greedy filling: a round closes when the next element would exceed
    [crews] or [round_budget]) and evaluate each round exactly.  [cap]
    defaults to one crew, no budget.  Malformed orders (out of range,
    not broken, duplicate) are rejected {e before} any state array is
    indexed. *)

val greedy : ?cap:capacity -> Instance.t -> Instance.solution -> plan
(** [Schedule.greedy_order]'s marginal-gain order, chunked by [cap]
    ([cap] defaults to one crew, no budget: one element per round).
    @raise Invalid_argument when the solution's repairs do not pass
    [Schedule.validate_order] (rendered [order_error]). *)

type search_stats = {
  passes : int;  (** improvement passes executed *)
  moves_tried : int;  (** candidate orders evaluated *)
  moves_applied : int;  (** improving moves taken *)
  prefix_evals : int;
      (** round prefixes scored, the rise of [sched.evals]: every
          candidate's, the input order's and the result's *)
  memo_hits : int;
      (** of [prefix_evals], those answered from the memo; the rest
          were each solved once *)
  limited : Budget.reason option;
      (** [Some _] when the cooperative budget cut the search short *)
}

val local_search :
  ?budget:Budget.t ->
  ?pool:Pool.t ->
  ?max_passes:int ->
  ?max_moves:int ->
  cap:capacity ->
  Instance.t ->
  element list ->
  plan * search_stats
(** Best-improvement local search over the flat order under swap and
    remove-insert moves.  Each pass evaluates a deterministic sample of
    at most [max_moves] (default 512) candidate moves — on [pool] when
    given, results consumed in index order — and applies the best
    strictly-improving one (ties: lowest move index), stopping after
    [max_passes] (default 32) passes, when no move improves, or when
    [budget] trips (checked between passes; one work unit is spent per
    evaluated candidate).  The returned plan is at least as good as
    [of_order ~cap inst order].

    A round prefix's satisfaction depends only on its repaired set, so
    the search memoizes it by set in one table, created with the call
    and dropped when it returns.  Each pass lists the sets its
    candidates need that the table lacks, solves each once (on [pool]
    when given, inserted in index order) and then scores every
    candidate from the table.  Plans, AUCs and [sched.evals] are those
    of scoring every candidate with
    {!Netrec_core.Schedule.prefix_satisfactions}, for any pool size.
    @raise Invalid_argument when [max_moves < 1] or [max_passes < 0]
    (before any evaluation), or on a malformed [order] (rendered
    [order_error]). *)

type oracle_result = {
  plan : plan;  (** optimal (or best-incumbent) round assignment *)
  proved : bool;  (** whether branch-and-bound proved optimality *)
  nodes : int;  (** B&B nodes solved *)
  pivots : int;  (** simplex pivots across all node relaxations *)
  milp_auc : float;
      (** AUC claimed by the MILP objective; [plan.auc] is the same
          schedule re-evaluated through the shared evaluator, so the two
          may differ by solver eps *)
  limited : Budget.reason option;  (** why the search stopped early *)
}

type oracle_error =
  | Malformed of Schedule.order_error  (** input failed validation *)
  | Too_big of { vars : int; cap : int }
      (** the time-indexed model would exceed [var_cap] variables *)
  | No_incumbent of Budget.reason option
      (** budget exhausted before any feasible assignment was found *)

val oracle :
  ?budget:Budget.t ->
  ?node_limit:int ->
  ?var_cap:int ->
  cap:capacity ->
  Instance.t ->
  element list ->
  (oracle_result, oracle_error) result
(** Exact small-instance oracle.  Time-indexed MILP over [T] rounds
    ([T] = round count of greedily chunking [elements], a feasibility
    witness): binaries [z_{e,t}] assign each element to exactly one
    round under per-round crew/cost caps; each round carries an
    independent multicommodity-flow block whose broken-element
    capacities are gated by cumulative availability
    [X_{e,t} = sum_{t' <= t} z_{e,t'}]; the objective maximizes total
    satisfied demand across rounds (the AUC numerator).  Solved with
    {!Netrec_lp.Milp.solve} (warm-started B&B; [node_limit] default
    20_000).  Models larger than [var_cap] variables (default 20_000)
    are refused with [Too_big] — this is a small-instance ground truth,
    not a scale scheduler. *)

val regret : oracle:plan -> plan -> float
(** [(oracle.auc - plan.auc) / oracle.auc], clamped to [>= 0] — the
    relative optimality gap of a heuristic plan. *)

val certify_rounds : Instance.t -> plan -> Check.certificate list
(** Certify every cumulative round prefix as a repair-only solution
    against the instance (one certificate per round, in order).  All
    certificates of a well-formed plan are violation-free. *)
