(** Shared scaffolding for the figure reproductions: feasible-scenario
    construction, timed measurement, and the one sweep driver that runs,
    journals and groups seeded runs for averaging.

    The paper averages each point over 20 runs; the harness takes the run
    count as a parameter (the shipped benchmark defaults to fewer for
    wall-clock reasons — see EXPERIMENTS.md) with deterministic
    per-run seeds split from one experiment seed. *)

module Instance = Netrec_core.Instance
module Failure = Netrec_disrupt.Failure
module Pool = Netrec_parallel.Pool

val measure :
  ?label:string -> Instance.t -> (unit -> Instance.solution) ->
  (string * float) list
(** Run an algorithm, time it via [Netrec_obs.Obs.timed] (so the tracing
    collector sees the same number the figure table reports), and assess
    the solution.  [label] names the span (default ["measure"]).  The
    result is the journal field list [repairs_v], [repairs_e],
    [repairs_total], [satisfied] (fraction in [0,1]) and [seconds]
    (algorithm wall time), in that order. *)

val measure_precomputed :
  Instance.t -> Instance.solution -> seconds:float -> (string * float) list
(** Assess an already-computed solution with a known runtime; the same
    fields as {!measure}. *)

val feasible_demands :
  rng:Netrec_util.Rng.t ->
  ?distinct:bool ->
  ?max_tries:int ->
  count:int ->
  amount:float ->
  Graph.t ->
  Netrec_flow.Commodity.t list
(** Draw far-apart demand pairs (§VII-A) and redraw until the demand is
    routable on the {e intact} supply graph, so that every recovery
    problem posed to the algorithms is solvable — as in the paper.
    @raise Failure after [max_tries] (default 60) infeasible draws. *)

val complete_instance :
  rng:Netrec_util.Rng.t ->
  ?distinct:bool ->
  count:int ->
  amount:float ->
  Graph.t ->
  Instance.t
(** Feasible demands + complete destruction. *)

val scalable_demands :
  rng:Netrec_util.Rng.t ->
  ?max_tries:int ->
  count:int ->
  max_amount:float ->
  Graph.t ->
  Netrec_flow.Commodity.t list
(** Demand pairs (amount 1 each) that remain routable on the intact graph
    when every amount is scaled up to [max_amount].  Intensity sweeps
    (Figs. 3 and 5) fix one such pair set per seed and scale it across
    the x-axis, exactly as the paper varies "the demand flow per pair"
    with the pairs held fixed. *)

val scale_demands :
  Netrec_flow.Commodity.t list -> float -> Netrec_flow.Commodity.t list
(** Set every demand's amount. *)

val percent : float -> float
(** [percent f] is [100 * f] (for satisfied-demand columns). *)

exception Interrupted
(** Raised by {!run_jobs} between cells after {!request_stop}: every
    cell finished before the stop request is already journalled, so a
    rerun with the same journal file resumes exactly there. *)

val request_stop : unit -> unit
(** Ask {!run_jobs} to stop at the next cell boundary.  Only performs an
    atomic store, so it is safe to call from a signal handler. *)

val stop_requested : unit -> bool
(** Whether {!request_stop} has been called. *)

val reset_stop : unit -> unit
(** Clear the stop flag (tests; a fresh run after a handled stop). *)

type job = {
  point : string;  (** journal point key, e.g. ["fig6:variance=70"] *)
  run : int;  (** journal run index *)
  cells : unit -> Journal.cells;
      (** the measurements of this (point, run) pair.  Must not consume
          the random-number stream and must not touch shared mutable
          state: it may be skipped on resume and may execute on a worker
          domain. *)
}
(** One (point, run) experiment cell, self-contained and order-free. *)

val run_jobs :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  job list ->
  Journal.cells list
(** Evaluate every job and return the cells in job order.  Pairs the
    journal has completed are replayed; the rest are computed — on the
    pool when one with more than one domain is given, sequentially
    otherwise — and recorded {e in job order}, so the journal bytes do
    not depend on the pool size.  Results (and therefore any figure
    aggregation done over them in order) are identical for every
    [jobs] setting. *)

val run_indices : int -> int list
(** [run_indices runs] is [[1; ...; runs]], the journal run indices of
    a sweep point.  @raise Invalid_argument when [runs < 1]. *)

val sweep :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  ('x * job) list ->
  'x ->
  string ->
  (string * float) list list
(** The figure sweep driver: evaluate the [(point, job)] pairs with
    {!run_jobs} and return [runs] such that [runs x alg] is the field
    lists algorithm [alg] recorded at point [x], latest job first
    ([[]] when none did).  Points are compared structurally. *)

val mean : (string * float) list list -> string -> float
(** [mean runs key] averages [key] over the runs that recorded it as a
    non-NaN value, summed left to right; [nan] when none did. *)

val best_incumbent :
  Instance.t -> Instance.solution -> Instance.solution
(** Strongest cheap warm start for the OPT branch-and-bound: the better
    (fewest repairs, demand fully served) of the given solution after the
    redundancy postpass and the multicommodity-relaxation MCB solution.
    Falls back to the postpassed input when the relaxation is
    unavailable. *)

val comparison_cells :
  fig:string -> opt_nodes:int -> Instance.t -> Journal.cells
(** The Figs. 4-6 cell: ISP, SRT, GRD-COM, GRD-NC and OPT (anytime
    branch-and-bound with [opt_nodes] nodes, warm-started from
    {!best_incumbent}) on one instance, each as {!measure} fields.  The
    spans are [<fig>.isp], [<fig>.srt], [<fig>.grd_com] and
    [<fig>.grd_nc]. *)

val comparison_tables :
  column:string ->
  repairs:(string * string * (float -> float)) list ->
  satisfied:string ->
  (float -> string -> (string * float) list list) ->
  float list ->
  Netrec_util.Table.t list
(** The Figs. 4-6 tables over {!comparison_cells} runs, one row per
    point: for each [(title, key, all)] in [repairs] a table of the
    mean [key] of ISP, OPT, SRT, GRD-COM and GRD-NC plus [all x] as the
    ALL column, then the table titled [satisfied] of the % satisfied
    demand of SRT, GRD-COM and ISP.  [column] heads the point column. *)
