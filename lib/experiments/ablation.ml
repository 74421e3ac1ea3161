module Table = Netrec_util.Table
module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Isp = Netrec_core.Isp
module Sched = Netrec_sched.Sched
module H = Netrec_heuristics
open Common

(* Ablations 1-3 on one complete-destruction instance. *)
let design_cells inst =
  let sol, _ = Isp.solve inst in
  let repairs config =
    float_of_int (Instance.total_repairs (fst (Isp.solve ~config inst)))
  in
  let solver_order =
    List.map (fun v -> `Vertex v) sol.Instance.repaired_vertices
    @ List.map (fun e -> `Edge e) sol.Instance.repaired_edges
  in
  let solver_auc =
    match Sched.of_order inst solver_order with
    | Ok plain -> plain.Sched.auc
    | Error e ->
      failwith ("ablation: " ^ Netrec_core.Schedule.order_error_to_string e)
  in
  [ ( "ISP",
      [ ("dynamic", float_of_int (Instance.total_repairs sol));
        ("hop", repairs { Isp.default_config with length_mode = Isp.Hop });
        ("single", repairs { Isp.default_config with split_candidates = 1 });
        ("greedy_auc", (Sched.greedy inst sol).Sched.auc);
        ("solver_auc", solver_auc) ] );
    ("SRT", measure ~label:"ablation.srt" inst (fun () -> H.Srt.solve inst));
    ( "SRT-R",
      measure ~label:"ablation.srt_residual" inst (fun () ->
          H.Srt.solve_residual inst) ) ]

(* Ablation 4 on one uniform-failure instance, OPT at 200 nodes. *)
let uniform_cells inst =
  let bv, be = Netrec_disrupt.Failure.counts inst.Instance.failure in
  let sol, _ = Isp.solve inst in
  let opt =
    H.Opt.solve ~node_limit:200 ~incumbent:(best_incumbent inst sol) inst
  in
  [ ( "ISP",
      measure_precomputed inst sol ~seconds:0.0
      @ [ ("all", float_of_int (bv + be));
          ("opt", float_of_int (Instance.total_repairs opt.H.Opt.solution)) ]
    ) ]

let run ?journal ?pool ~runs ?(seed = 42) () =
  let g = Netrec_topo.Bell_canada.graph () in
  let master = Rng.create seed in
  (* One rng split per (point, run) while the jobs are built, pair counts
     first, then failure probabilities; the cells are rng-free. *)
  let jobs point xs instance cells =
    List.concat_map
      (fun x ->
        List.map
          (fun r ->
            let inst = instance x (Rng.split master) in
            ( point x,
              { point = point x; run = r; cells = (fun () -> cells inst) } ))
          (run_indices runs))
      xs
  in
  let pair_counts = [ 2; 4; 6 ] and fail_ps = [ 0.2; 0.4; 0.6; 0.8 ] in
  let pairs_point = Printf.sprintf "ablation:pairs=%d" in
  let fail_point = Printf.sprintf "ablation:fail_p=%g" in
  let design =
    jobs pairs_point pair_counts
      (fun pairs rng -> complete_instance ~rng ~count:pairs ~amount:10.0 g)
      design_cells
  in
  let uniform =
    jobs fail_point fail_ps
      (fun p rng ->
        let demands = feasible_demands ~rng ~count:4 ~amount:10.0 g in
        let failure =
          Netrec_disrupt.Models.uniform ~rng ~p_vertex:p ~p_edge:p g
        in
        Instance.make ~graph:g ~demands ~failure ())
      uniform_cells
  in
  let runs = sweep ?journal ?pool (design @ uniform) in
  let metric_t =
    Table.create
      ~title:"Ablation 1: ISP design choices, total repairs (Bell-Canada, complete destruction, 10 units/pair)"
      ~columns:
        [ "pairs"; "ISP(dynamic)"; "ISP(hop-metric)"; "ISP(1-candidate)" ]
  in
  let sched_t =
    Table.create
      ~title:"Ablation 2: progressive recovery, normalized area under the satisfied-demand curve"
      ~columns:[ "pairs"; "greedy order"; "solver order" ]
  in
  let srt_t =
    Table.create
      ~title:"Ablation 3: what residual-capacity awareness buys SRT (repairs / % satisfied)"
      ~columns:[ "pairs"; "SRT rep"; "SRT sat%"; "SRT-R rep"; "SRT-R sat%" ]
  in
  List.iter
    (fun pairs ->
      let mean alg key = mean (runs (pairs_point pairs) alg) key in
      let x = float_of_int pairs in
      Table.add_float_row ~decimals:1 metric_t
        [ x; mean "ISP" "dynamic"; mean "ISP" "hop"; mean "ISP" "single" ];
      Table.add_float_row ~decimals:3 sched_t
        [ x; mean "ISP" "greedy_auc"; mean "ISP" "solver_auc" ];
      Table.add_float_row ~decimals:1 srt_t
        [ x; mean "SRT" "repairs_total"; percent (mean "SRT" "satisfied");
          mean "SRT-R" "repairs_total"; percent (mean "SRT-R" "satisfied") ])
    pair_counts;
  (* Robustness under independent (uncorrelated) failures: the Gaussian
     model of the paper is geographically clustered; this table shows
     ISP behaves the same way when failures are scattered. *)
  let uniform_t =
    Table.create
      ~title:"Ablation 4: ISP under uniform (uncorrelated) failures (4 pairs, 10 units)"
      ~columns:[ "fail prob"; "ALL"; "ISP rep"; "ISP sat%"; "OPT rep" ]
  in
  List.iter
    (fun p ->
      let mean key = mean (runs (fail_point p) "ISP") key in
      Table.add_float_row ~decimals:1 uniform_t
        [ p; mean "all"; mean "repairs_total"; percent (mean "satisfied");
          mean "opt" ])
    fail_ps;
  [ metric_t; sched_t; srt_t; uniform_t ]
