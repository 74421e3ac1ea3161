(** The deterministic gate blocks of [BENCH_metrics.json]: solver
    verdicts and work counters from one pinned scenario each.  Unlike
    wall-clock numbers these integers are machine-independent, so each
    block is held exactly by its row of the gate table
    ({!Netrec_obs.Metrics_diff.gates}): [recover metrics validate]
    checks a written record, and the test suite builds every block live
    and checks it the same way.

    Each builder turns the collector on for the solves it counts and
    restores the previous setting.  Counter entries are rises of the
    merged all-domain counters, so a block is the same for any pool
    size. *)

val opt_scenario : unit -> Netrec_core.Instance.t
(** The pinned OPT scenario behind [lp_gate]: Bell-Canada, seed 2, four
    feasible demands of 10 units, Gaussian damage of variance 70. *)

val lp : unit -> (string * int) list
(** [lp_gate]: one full OPT solve of {!opt_scenario} with the
    exact-solver accelerations on — [opt.proved], [opt.nodes] and the
    simplex/B&B/presolve/cut counters. *)

val xl : ?pool:Netrec_parallel.Pool.t -> unit -> (string * int) list
(** [xl_gate]: the sharded solver on {!Fig9_xl.smoke_scenario} — the
    certificate, shard shape, delegation flag, sampled-centrality work
    and hop-search work ([bidir.scanned]). *)

val sched : ?pool:Netrec_parallel.Pool.t -> unit -> (string * int) list
(** [sched_gate]: greedy, greedy + local search (on [pool]) and the MILP
    oracle on {!Fig_sched.smoke_scenario} — the oracle's proof, AUCs and
    regret in microunits, round-prefix certification and the scheduler
    counters. *)

val caida_scenario : unit -> Netrec_core.Instance.t
(** The pinned CAIDA instance of [work_gate]'s sharded case: four
    distinct feasible pairs of 22 units (seed 4), complete destruction.
    The sharded solver delegates it to ISP. *)

val work : unit -> (string * int) list
(** [work_gate]: one solve per figure-family case that no other gate or
    perfbench workload covers, each on a pinned complete-destruction
    instance — MCB (Fig. 3) and the exact routability LP, GRD-COM
    (Fig. 4) and SRT (Fig. 5) on Bell-Canada; ISP and the Steiner-forest
    DP (Fig. 7) on a 100-vertex Erdős–Rényi graph; the sharded solver
    on CAIDA (Fig. 9), where it must delegate to ISP.  Each case reports
    its repair count or verdict and the work counter that tracks its
    cost (pivots, paths, settled vertices, iterations, Dreyfus–Wagner
    solves). *)

val blocks : ?pool:Netrec_parallel.Pool.t -> unit -> (string * (string * int) list) list
(** [[("lp_gate", lp ()); ("xl_gate", xl ?pool ()); ("sched_gate",
    sched ?pool ()); ("work_gate", work ())]], built in that
    order. *)
