(** Fig. 6 — Bell-Canada under geographically-correlated (bivariate
    Gaussian) failures, varying the variance of the disruption
    (4 demand pairs, 10 flow units each, epicenter at the barycenter).

    Two tables: (a) total repairs — ISP, OPT, SRT, GRD-COM, GRD-NC and
    ALL (the number of destroyed elements, which now varies with the
    variance) — and (b) percentage of satisfied demand. *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  ?runs:int ->
  ?opt_nodes:int ->
  unit ->
  Netrec_util.Table.t list
(** Produce both tables (one row per variance 10..150). *)
