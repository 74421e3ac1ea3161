(** Fig. 9 — the large CAIDA-like topology (825 nodes, 1018 edges),
    22 flow units per pair, varying the number of demand pairs.

    Two tables: (a) total repairs — ISP, OPT, SRT — and (b) percentage
    of satisfied demand — ISP, SRT.  As in the paper, the greedy
    heuristics are omitted (their exhaustive path enumeration does not
    scale) and OPT cannot be solved exactly at this size: the paper ran
    Gurobi for tens of hours; here OPT is the documented proxy — the
    best feasible solution among ISP, the Steiner-forest recovery and
    their redundancy-pruned variants (DESIGN.md §3). *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  runs:int ->
  unit ->
  Netrec_util.Table.t list
(** Produce both tables (one row per pair count, 1..7). *)
