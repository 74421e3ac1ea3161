(** Fig. 5 — Bell-Canada, complete destruction, varying the demand
    intensity (4 demand pairs).

    Two tables: (a) total repairs — ISP, OPT, SRT, GRD-COM, GRD-NC,
    ALL — and (b) percentage of satisfied demand — SRT, GRD-COM, ISP. *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  runs:int ->
  opt_nodes:int ->
  unit ->
  Netrec_util.Table.t list
(** Produce both tables (one row per demand intensity 2..18). *)
