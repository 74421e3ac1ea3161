(** Fig 9-xl: the 100x scale extension of the CAIDA-like evaluation —
    sharded ISP ({!Netrec_shard.Shard}) on seeded scale-free topologies
    of 20k-100k vertices under a vertex-centred Gaussian disaster, with
    demand pairs drawn near the epicenter.  Reports per size: disaster
    region, shard count, cut/fixed-up demands, repairs, satisfied
    demand, certification and wall time (see EXPERIMENTS.md). *)

val scenario :
  n:int ->
  ?m:int ->
  ?vmult:float ->
  ?pairs:int ->
  ?amount:float ->
  topo_seed:int ->
  fail_seed:int ->
  demand_seed:int ->
  unit ->
  Netrec_core.Instance.t
(** Deterministic xl disaster instance: [sf:n=<n>,m=<m>,seed=<topo_seed>]
    topology, Gaussian damage of variance [vmult]/n centred on vertex
    [n/2]'s coordinate, [pairs] demand pairs of [amount] units drawn
    within 4 sigma of the epicenter.  @raise Failure on a degenerate
    scenario (no coordinates, empty disaster area). *)

val smoke_scenario : unit -> Netrec_core.Instance.t
(** The pinned 5000-vertex smoke scenario behind the [xl_gate] block
    ({!Gates.xl}): several shards, cut demands, subsecond. *)

val default_sizes : int list
(** [[20_000; 50_000; 100_000]]. *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  ?runs:int ->
  ?sizes:int list ->
  unit ->
  Netrec_util.Table.t list
(** Regenerate the fig9-xl table ([runs] seeded scenarios per size,
    default 2). *)
