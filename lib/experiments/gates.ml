module Obs = Netrec_obs.Obs
module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Check = Netrec_check.Check
module Opt = Netrec_heuristics.Opt
module Shard = Netrec_shard.Shard
module Sched = Netrec_sched.Sched
module Failure = Netrec_disrupt.Failure
module Isp = Netrec_core.Isp
module Mcf_lp = Netrec_flow.Mcf_lp
module H = Netrec_heuristics

let opt_scenario () =
  let g = Netrec_topo.Bell_canada.graph () in
  let rng = Rng.create 2 in
  let demands = Common.feasible_demands ~rng ~count:4 ~amount:10.0 g in
  let failure = Netrec_disrupt.Models.gaussian ~rng ~variance:70.0 g in
  Instance.make ~graph:g ~demands ~failure ()

(* [f ()] with the collector on, and the rise of each counter in [keys]
   across it.  Counters merge over every domain that recorded, so the
   rises are the same for any pool size.  Scenarios are built before
   and verdicts checked after, outside the counted window. *)
let with_deltas keys f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let before = List.map Obs.counter_value keys in
  let r = f () in
  let deltas =
    List.map2 (fun k v -> (k, Obs.counter_value k - v)) keys before
  in
  Obs.set_enabled was;
  (r, deltas)

let flag b = if b then 1 else 0

let lp () =
  let inst = opt_scenario () in
  let r, deltas =
    with_deltas
      [ "simplex.pivots"; "simplex.bound_flips"; "simplex.solves";
        "simplex.warm_starts"; "simplex.phase1_skipped";
        "simplex.dse_pivots"; "simplex.dse_resets"; "milp.nodes";
        "milp.nodes_pruned"; "presolve.runs"; "presolve.vars_fixed";
        "presolve.rows_dropped"; "presolve.bounds_tightened";
        "presolve.coefs_tightened"; "cuts.separated"; "cuts.added";
        "cuts.rejected"; "cuts.root_solves"; "cuts.aged_out" ]
      (fun () -> Opt.solve inst)
  in
  ("opt.proved", flag r.Opt.proved) :: ("opt.nodes", r.Opt.nodes) :: deltas

let xl ?pool () =
  let inst = Fig9_xl.smoke_scenario () in
  let (sol, st), deltas =
    with_deltas
      [ "centrality.sampled_recomputed"; "centrality.sampled_skipped";
        "bidir.scanned"; "bidir.reach_scanned" ]
      (fun () -> Shard.solve ?pool inst)
  in
  [ ("xl.certified", flag (Check.ok st.Shard.certificate));
    ("check.violations", List.length st.Shard.certificate.Check.violations);
    ("xl.repairs_total", Instance.total_repairs sol);
    ("isp.shard_count", st.Shard.shards);
    ("isp.shard_region_vertices", st.Shard.region_vertices);
    ("isp.shard_cut_demands", st.Shard.cut_demands);
    ("isp.shard_fixup_paths", st.Shard.fixup_paths);
    ("isp.shard_delegated", flag st.Shard.delegated) ]
  @ deltas

let sched ?pool () =
  let inst = Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  let (greedy, refined, oracle), deltas =
    with_deltas
      [ "sched.plans"; "sched.rounds"; "sched.evals"; "sched.ls_passes";
        "sched.moves_tried"; "sched.moves_applied"; "sched.oracle_solves";
        "sched.oracle_nodes" ]
      (fun () ->
        let greedy = Sched.greedy ~cap inst (Instance.repair_all inst) in
        let refined, _ =
          Sched.local_search ?pool ~cap inst (Sched.order_of greedy)
        in
        match Sched.oracle ~cap inst (Fig_sched.smoke_elements ()) with
        | Ok oracle -> (greedy, refined, oracle)
        | Error _ -> failwith "sched gate: oracle refused the smoke scenario")
  in
  let micro x = int_of_float (Float.round (1e6 *. x)) in
  let certified = List.for_all Check.ok (Sched.certify_rounds inst refined) in
  [ ("sched.oracle_proved", flag oracle.Sched.proved);
    ("sched.plan_rounds", List.length refined.Sched.rounds);
    ("sched.greedy_auc_microunits", micro greedy.Sched.auc);
    ("sched.ls_auc_microunits", micro refined.Sched.auc);
    ("sched.oracle_auc_microunits", micro oracle.Sched.plan.Sched.auc);
    ( "sched.regret_microunits",
      micro (Sched.regret ~oracle:oracle.Sched.plan refined) );
    ("sched.certified", flag certified) ]
  @ deltas

(* The work gate's pinned instances, all under complete destruction:
   Bell-Canada with 4 pairs of 10 units (Figs. 3-5), a 100-vertex
   Erdos-Renyi graph with 5 unit pairs (Fig. 7), CAIDA with 4 pairs of
   22 units (Fig. 9). *)
let bell_canada_instance () =
  let g = Netrec_topo.Bell_canada.graph () in
  let rng = Rng.create 1 in
  let demands = Common.feasible_demands ~rng ~count:4 ~amount:10.0 g in
  Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()

let er_instance () =
  let rng = Rng.create 3 in
  let g =
    Netrec_graph.Generate.erdos_renyi ~rng ~n:100 ~p:0.3 ~capacity:1000.0
  in
  let demands =
    Common.feasible_demands ~rng ~distinct:true ~count:5 ~amount:1.0 g
  in
  (g, Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ())

let caida_scenario () =
  let g = Netrec_topo.Caida.graph () in
  let rng = Rng.create 4 in
  let demands =
    Common.feasible_demands ~rng ~distinct:true ~count:4 ~amount:22.0 g
  in
  Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()

(* [f ()] and the rise of counter [key] across it. *)
let rise key f =
  let r, deltas = with_deltas [ key ] f in
  (r, List.assoc key deltas)

let work () =
  let bc = bell_canada_instance () in
  let er_g, er = er_instance () in
  let caida = caida_scenario () in
  let pairs =
    List.map
      (fun d -> (d.Netrec_flow.Commodity.src, d.Netrec_flow.Commodity.dst))
      er.Instance.demands
  in
  let repairs = Instance.total_repairs in
  let mcb, mcb_pivots =
    rise "simplex.pivots" (fun () -> H.Mcf_heuristic.solve bc)
  in
  let verdict, lp_pivots =
    rise "simplex.pivots" (fun () ->
        Mcf_lp.feasible
          ~cap:(Graph.capacity bc.Instance.graph)
          bc.Instance.graph bc.Instance.demands)
  in
  let grd, paths = rise "path_enum.paths" (fun () -> H.Greedy.grd_com bc) in
  let srt, srt_settled = rise "dijkstra.settled" (fun () -> H.Srt.solve bc) in
  let (isp, _), isp_work =
    with_deltas [ "isp.iterations"; "dijkstra.settled" ] (fun () ->
        Isp.solve er)
  in
  let optimum, tree_solves =
    rise "forest.tree_solves" (fun () ->
        H.Exact_forest.optimal_total_repairs er_g ~pairs)
  in
  let (shard, st), shard_iterations =
    rise "isp.iterations" (fun () -> Shard.solve caida)
  in
  [ ( "mcb.repairs_total",
      match mcb with Some r -> repairs r.H.Mcf_heuristic.mcb | None -> 0 );
    ("mcb.pivots", mcb_pivots);
    ( "mcf_lp.routable",
      flag (match verdict with Mcf_lp.Routable _ -> true | _ -> false) );
    ("mcf_lp.pivots", lp_pivots);
    ("grd_com.repairs_total", repairs grd);
    ("grd_com.paths", paths);
    ("srt.repairs_total", repairs srt);
    ("srt.settled", srt_settled);
    ("isp_er.repairs_total", repairs isp);
    ("isp_er.iterations", List.assoc "isp.iterations" isp_work);
    ("isp_er.settled", List.assoc "dijkstra.settled" isp_work);
    ("forest.optimum", Option.value ~default:0 optimum);
    ("forest.tree_solves", tree_solves);
    ("shard_caida.delegated", flag st.Shard.delegated);
    ("shard_caida.repairs_total", repairs shard);
    ("shard_caida.iterations", shard_iterations) ]

let blocks ?pool () =
  let lp_gate = lp () in
  let xl_gate = xl ?pool () in
  let sched_gate = sched ?pool () in
  let work_gate = work () in
  [ ("lp_gate", lp_gate); ("xl_gate", xl_gate); ("sched_gate", sched_gate);
    ("work_gate", work_gate) ]
