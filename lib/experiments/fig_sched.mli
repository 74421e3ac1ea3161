(** Fig sched: capacity-constrained temporal recovery scheduling —
    flow-weighted area under the per-round recovery curve for an
    arbitrary order, the greedy scheduler, greedy + local search, and
    the exact MILP oracle ({!Netrec_sched.Sched}), with the
    regret-vs-oracle of the production pipeline per instance size (see
    EXPERIMENTS.md). *)

val smoke_scenario : unit -> Netrec_core.Instance.t
(** The pinned 5-vertex two-corridor scenario behind the [sched_gate]
    block ({!Gates.sched}): the oracle proves optimality in
    milliseconds and optimal play restores full service in round one. *)

val smoke_elements : unit -> Netrec_sched.Sched.element list
(** The smoke scenario's repair set in a deliberately back-loaded
    order (long corridor first), so arbitrary-order scheduling is
    visibly suboptimal. *)

val smoke_crews : int
(** Crews per round for the smoke scenario gate ([3]). *)

val scenario : n:int -> seed:int -> unit -> Netrec_core.Instance.t
(** Deterministic regret scenario: an [n]-vertex spine with seeded
    chords, one end-to-end demand, the middle vertex always destroyed
    plus seeded interior damage.  @raise Invalid_argument when [n < 4]. *)

val curve_table : unit -> Netrec_util.Table.t
(** Per-round satisfied-demand curves of the four schedulers on the
    pinned smoke scenario. *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  ?runs:int ->
  unit ->
  Netrec_util.Table.t list
(** Regenerate the fig-sched tables: the regret-vs-oracle sweep (two
    crews; [runs] seeded scenarios per size 5, 6 and 7, default 3) and
    the pinned recovery-curve table. *)
