(** Shared pieces of progressive recovery scheduling.

    The paper computes {e what} to repair; in practice crews repair a few
    elements at a time and operators care how fast service comes back
    (the throughput-over-time objective of Wang, Qiao & Yu — the paper's
    reference [32] — discussed in §II).  The round schedulers, the exact
    MILP oracle and the local search live in [Netrec_sched.Sched]; this
    module holds what they share: the repair element type and its
    validation, the exact per-prefix evaluator, and the marginal-gain
    ordering.

    The greedy ordering picks, at each step, the repair element whose
    addition yields the largest immediate gain in satisfiable demand
    (ties broken by repair cost, then id); between gains it prefers
    elements that complete working paths. *)

type element = [ `Vertex of Graph.vertex | `Edge of Graph.edge_id ]

(** Structured rejection of a malformed repair order: ids are validated
    against the instance {e before} any state array is indexed, so an
    out-of-range element becomes a typed error instead of a bare
    [Invalid_argument "index out of bounds"]. *)
type order_error =
  | Out_of_range of element  (** id outside the instance's graph *)
  | Not_broken of element  (** element is not broken, nothing to repair *)
  | Duplicate of element  (** element scheduled more than once *)

val element_to_string : element -> string
(** ["vertex 3"] / ["edge 7"]. *)

val order_error_to_string : order_error -> string
(** One-line human-readable rendering. *)

val validate_order : Instance.t -> element list -> (unit, order_error) result
(** Check every element against the instance: in range, actually broken,
    no duplicates.  First offending element wins. *)

val baseline_satisfaction : Instance.t -> float
(** Exact(ish) satisfiable fraction of the {e unrepaired} instance — the
    value an empty schedule's [auc] reports, and round 0 of every
    recovery curve. *)

val satisfaction : Instance.t -> element list -> float
(** [satisfaction inst elements] is the exact satisfiable fraction once
    exactly [elements] are repaired.  It depends only on the set, not on
    the list's order or repeats: the value {!prefix_satisfactions}
    reports for any prefix that repairs this set.  Elements are {e not}
    validated. *)

val prefix_satisfactions : Instance.t -> element list list -> float list
(** [prefix_satisfactions inst groups] applies each group of repairs
    cumulatively and returns the exact satisfiable fraction after each —
    the per-round evaluation primitive of the capacity-constrained
    schedulers.  Elements are {e not} validated (callers batch-validate
    with {!validate_order} first). *)

val greedy_order : Instance.t -> Instance.solution -> element list
(** Order the solution's repairs greedily by marginal satisfied demand,
    scored with the fast constructive router (no exact evaluation per
    step: callers evaluate the order with {!prefix_satisfactions}).  The
    solution should be feasible; unordered leftovers (zero marginal
    gain) are appended by cost.
    @raise Invalid_argument when the solution's repair list does not pass
    {!validate_order} (rendered {!order_error}). *)
