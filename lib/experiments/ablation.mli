(** Ablation studies for the design choices DESIGN.md calls out — beyond
    the paper's own figures.

    Four tables:

    + {b Length metric} — ISP with the paper's dynamic repair-aware
      metric (§IV-D) versus plain hop lengths, and with a single split
      candidate versus the default portfolio, on Bell-Canada complete
      destruction.  Quantifies the claim that the dynamic metric is what
      concentrates flows onto already-repaired components.
    + {b Progressive recovery} — the area under the satisfied-demand
      curve when ISP's repairs are executed in greedy marginal-gain
      order ({!Netrec_sched.Sched.greedy}, one crew) versus the
      arbitrary order the solver emits, connecting to the throughput-over-time objective
      of the paper's reference [32].
    + {b SRT vs SRT-R} — how much of SRT's demand loss disappears when
      the heuristic merely tracks residual capacities
      ({!Netrec_heuristics.Srt.solve_residual}), and what it pays in
      extra repairs.
    + {b Uniform failures} — ISP against OPT (a fixed 200-node
      branch-and-bound budget) when failures are scattered rather than
      geographically correlated. *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  runs:int ->
  ?seed:int ->
  unit ->
  Netrec_util.Table.t list
(** Produce the ablation tables over {!Common.sweep}: journal points
    [ablation:pairs=N] (tables 1-3) and [ablation:fail_p=P] (table 4). *)
