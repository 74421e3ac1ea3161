(** Fig. 3 — the multicommodity relaxation's solution-space spread.

    Bell-Canada topology, complete destruction, 4 demand pairs, demand
    per pair swept from 2 to 18 flow units.  Series: total repairs of
    OPT, MCW, MCB (see {!Netrec_heuristics.Mcf_heuristic} for the proxy
    definitions) and ALL (every broken element). *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  runs:int ->
  opt_nodes:int ->
  unit ->
  Netrec_util.Table.t list
(** Produce the table (one row per demand intensity). *)
