(** ITERATIVE SPLIT AND PRUNE (paper §IV, Algorithm 1).

    ISP decides which broken components to repair by iterating three
    actions until the residual demand is routable over the working
    (never-broken or repaired) sub-network:

    - {b prune} demands that a working bubble can carry (Thm. 3),
      committing the corresponding routing and consuming residual
      capacity;
    - {b repair} broken supply edges that directly connect the endpoints
      of a demand no working path can satisfy (§IV-E);
    - {b split} the hardest demand through the vertex of highest
      demand-based centrality [v_BC], repairing [v_BC] when broken and
      forcing [dx] units through it (§IV-C).

    Interpretation choices (see DESIGN.md §4): split/prune feasibility is
    certified against the full residual supply graph, termination against
    the working one; demand endpoints that are broken are repaired
    upfront (any feasible solution must); the split amount [dx] uses the
    exact LP when the instance fits the simplex budget (2500 variables)
    and a certified binary search over the constructive router
    otherwise.  An iteration cap ([20 * (nv + ne) + 100 * |H|]) with a
    shortest-repair-path fallback guarantees termination even when the
    oracles are inconclusive; the [stats] record reports whether the
    fallback fired (it does not in any shipped experiment). *)

type length_mode =
  | Dynamic
      (** the §IV-D repair-aware metric
          [(const + ke + (kv_u + kv_v)/2) / residual_capacity] with
          [const = 1] (a working link's length), {!Repairs.length},
          updated every iteration — the paper's choice *)
  | Hop  (** unit lengths: ablation switch to measure what the dynamic
             metric buys (see the fig4 ablation bench) *)

type config = {
  length_mode : length_mode;  (** default [Dynamic] *)
  split_candidates : int;
      (** how many top-centrality vertices to try per split step
          (default 5) *)
  incremental_centrality : bool;
      (** reuse centrality bundles across iterations via
          {!Centrality.Cache} (default [true]).  The result is
          bit-identical to recomputing from scratch — prunes report the
          edges they worsen, repairs report their vertex (or an endpoint
          of the repaired edge) as a gate — so this is purely a speed
          knob; [false] forces the from-scratch path (used by tests to
          cross-check the cache). *)
  centrality_sample : int option;
      (** when [Some k], cap per-iteration centrality work: only the
          top-[k] cache-missing demands get fresh bundles each split step
          (see {!Centrality.compute}).  An approximation — default
          [None] (exact); the xl sharded solver sets it. *)
  bundle_max_paths : int option;
      (** per-demand cap on successive-shortest-path enumeration inside
          centrality bundles (default [None] = unlimited); the xl
          sharded solver sets it. *)
}

val default_config : config

type stats = {
  iterations : int;
  splits : int;
  prunes : int;
  direct_edge_repairs : int;
  endpoint_repairs : int;
  fallback_paths : int;
      (** demands finished by the shortest-repair-path fallback; 0 in
          normal operation *)
  wall_seconds : float;
  limited : Netrec_resilience.Budget.reason option;
      (** [Some _] when the loop was cut short — by the cooperative
          budget (deadline/work cap) or the iteration cap (as a [Work]
          reason).  The solution is still feasible: remaining demands
          were finished by the shortest-repair-path fallback, so the
          result is anytime-degraded (costlier), not broken. *)
}

val solve :
  ?config:config ->
  ?budget:Netrec_resilience.Budget.t ->
  Instance.t ->
  Instance.solution * stats
(** Run ISP.  The returned solution always carries an explicit routing
    for the instance's original demands over the repaired network when
    one exists (ISP's no-demand-loss property); its repair lists contain
    only originally broken elements.  [budget] (default unlimited) is
    spent once per iteration and threaded into the inner LP oracles; when
    it trips, remaining demands are finished by the repair-path fallback
    and [stats.limited] records the reason. *)
