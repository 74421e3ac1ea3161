(** Fig. 7 — scalability on Erdős–Rényi topologies (n = 100), varying the
    edge probability p.

    Connectivity-only instances as in the paper: 5 unit-demand pairs,
    link capacity 1000, complete destruction — a Steiner Forest instance
    (Thm. 1).  Two tables: (a) execution time of ISP, SRT and OPT, and
    (b) total repairs of ISP, OPT and SRT.

    OPT here is the {e exact} optimum computed by the Dreyfus–Wagner
    Steiner-forest dynamic program ({!Netrec_heuristics.Exact_forest}) —
    the paper solved the same instances with a Gurobi MILP that took up
    to ~27 hours; the MILP column of table (a) is a fixed note, not a
    measurement (see EXPERIMENTS.md). *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  runs:int ->
  unit ->
  Netrec_util.Table.t list
(** Produce both tables (one row per p in 0.1..1.0). *)
