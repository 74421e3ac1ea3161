(** Disaster-region sharded ISP — recovery whose cost scales with the
    damage, not the graph.

    The Gaussian failure model breaks a geographically (and, on the
    synthetic scale-free topologies, topologically) local region of an
    otherwise huge working network.  Running plain ISP there wastes
    almost all of its per-iteration work on the intact 99% of the graph.
    This solver instead (DESIGN §16):

    + computes the {e disaster region} — every broken element plus a
      one-hop BFS fringe — and its connected components, the
      {e shards};
    + cuts each demand that lost working connectivity along its
      full-graph shortest path into per-shard {e sub-demands} (path
      segments outside the region are working by construction, because
      the region contains every broken element);
    + solves each shard as an independent small {!Netrec_core.Isp}
      instance on the caller's domain pool ({!Netrec_parallel.Pool.map},
      deterministic for any [-j]), with centrality sampled to 32
      demands and bundles capped at 16 paths (shards re-verify
      globally, so sampling is safe);
    + {e stitches} the per-shard repairs back together and runs a
      boundary-demand {e fixup} pass repairing a repair-aware shortest
      path for any demand the stitched repairs left disconnected —
      driving the {!Netrec_core.Centrality.Cache} invalidation contract
      ([note_improved] on repairs, [note_worse] on capacity consumption)
      exactly as ISP's own loop does;
    + routes the original demands globally over the repaired network
      (the LP/GK oracle ladder up to 2048 vertices, the constructive
      greedy router above) and runs the result through
      {!Netrec_check.Check.certify}, so scale never silently costs
      correctness.

    When the region covers at least a quarter of the graph the solver
    {e delegates} to plain [Isp.solve] with the default config —
    global disasters (e.g. fig9's complete destruction) produce
    byte-identical solutions to the unsharded solver.

    Counters: [isp.shard_count], [isp.shard_region_vertices],
    [isp.shard_cut_demands], [isp.shard_fixup_paths],
    [isp.shard_delegated] (all materialised at 0), plus
    [shard.solve_ms]. *)

type stats = {
  shards : int;  (** shards actually solved (those with sub-demands) *)
  region_vertices : int;
  cut_demands : int;  (** demands segmented into sub-demands *)
  fixup_paths : int;  (** repair paths added by the stitch fixup pass *)
  delegated : bool;  (** true when plain ISP ran instead *)
  shard_stats : Netrec_core.Isp.stats list;
      (** per-shard ISP stats in shard order ([1] element when
          delegated) *)
  certificate : Netrec_check.Check.certificate;
      (** the stitched solution's certificate — callers should refuse
          solutions with violations *)
  wall_seconds : float;
}

val solve :
  ?pool:Netrec_parallel.Pool.t ->
  Netrec_core.Instance.t ->
  Netrec_core.Instance.solution * stats
(** Solve an instance by disaster-region sharding.  [pool] (default a
    1-domain pool) runs the per-shard solves; results are deterministic
    and byte-identical for any pool size.  The returned solution's
    routing covers the instance's original demands over the repaired
    network (greedy-constructive on xl graphs, oracle-backed on small
    ones). *)

(**/**)

(** Internal: the boundary-demand fixup pass, exposed so that tests can
    drive its loop on hand-built and perturbed instances (the pinned
    fig9-xl scenarios never leave a stitched demand disconnected).
    [fixup inst ~candidates rep] takes the plan's repair state after the
    stitch and repairs into it ({!Netrec_core.Repairs.repair_path}),
    largest amount first, the shortest full-graph path under the §IV-D
    length ({!Netrec_core.Repairs.length}) for each candidate with no
    working path in [rep]; a candidate with no positive-residual
    full-graph path is dropped.  Returns the number of paths
    repaired. *)
val fixup :
  Netrec_core.Instance.t ->
  candidates:Netrec_flow.Commodity.t list ->
  Netrec_core.Repairs.t ->
  int
