(** Fig. 4 — Bell-Canada, complete destruction, varying the number of
    demand pairs (10 flow units each).

    Four tables, as in the paper's four panels: (a) repaired edges,
    (b) repaired nodes, (c) total repairs — series ISP, OPT, SRT,
    GRD-COM, GRD-NC, ALL — and (d) percentage of satisfied demand for
    the heuristics without a routing guarantee plus ISP. *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  runs:int ->
  opt_nodes:int ->
  ?seed:int ->
  ?max_pairs:int ->
  unit ->
  Netrec_util.Table.t list
(** Produce the four tables (one row per pair count, 1..[max_pairs],
    default 7). *)
