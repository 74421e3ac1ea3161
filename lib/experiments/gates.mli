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

val blocks : ?pool:Netrec_parallel.Pool.t -> unit -> (string * (string * int) list) list
(** [[("lp_gate", lp ()); ("xl_gate", xl ?pool ()); ("sched_gate",
    sched ?pool ())]], built in that order. *)
