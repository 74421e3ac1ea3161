module Table = Netrec_util.Table
module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Isp = Netrec_core.Isp
module Schedule = Netrec_core.Schedule
module Sched = Netrec_sched.Sched
open Common

let run ?(runs = 3) ?(seed = 42) () =
  let g = Netrec_topo.Bell_canada.graph () in
  let master = Rng.create seed in
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
      let dyn = ref [] and hop = ref [] and single = ref [] in
      let auc_greedy = ref [] and auc_solver = ref [] in
      let srt_m = ref [] and srtr_m = ref [] in
      for _ = 1 to runs do
        let rng = Rng.split master in
        let inst = complete_instance ~rng ~count:pairs ~amount:10.0 g in
        let solve config =
          float_of_int
            (Instance.total_repairs (fst (Isp.solve ~config inst)))
        in
        let base = Isp.default_config in
        dyn := solve base :: !dyn;
        hop := solve { base with Isp.length_mode = Isp.Hop } :: !hop;
        single := solve { base with Isp.split_candidates = 1 } :: !single;
        let sol, _ = Isp.solve inst in
        auc_greedy := (Sched.greedy inst sol).Sched.auc :: !auc_greedy;
        let solver_order =
          List.map (fun v -> `Vertex v) sol.Instance.repaired_vertices
          @ List.map (fun e -> `Edge e) sol.Instance.repaired_edges
        in
        (match Sched.of_order inst solver_order with
        | Ok plain -> auc_solver := plain.Sched.auc :: !auc_solver
        | Error e -> failwith ("ablation: " ^ Schedule.order_error_to_string e));
        srt_m :=
          measure ~label:"ablation.srt" inst (fun () ->
              Netrec_heuristics.Srt.solve inst)
          :: !srt_m;
        srtr_m :=
          measure ~label:"ablation.srt_residual" inst (fun () ->
              Netrec_heuristics.Srt.solve_residual inst)
          :: !srtr_m
      done;
      let avg = Netrec_util.Stats.mean in
      Table.add_float_row ~decimals:1 metric_t
        [ float_of_int pairs; avg !dyn; avg !hop; avg !single ];
      Table.add_float_row ~decimals:3 sched_t
        [ float_of_int pairs; avg !auc_greedy; avg !auc_solver ];
      Table.add_float_row ~decimals:1 srt_t
        [ float_of_int pairs; mean !srt_m "repairs_total";
          percent (mean !srt_m "satisfied"); mean !srtr_m "repairs_total";
          percent (mean !srtr_m "satisfied") ])
    [ 2; 4; 6 ];
  (* Robustness under independent (uncorrelated) failures: the Gaussian
     model of the paper is geographically clustered; this table shows ISP
     behaves the same way when failures are scattered. *)
  let uniform_t =
    Table.create
      ~title:"Ablation 4: ISP under uniform (uncorrelated) failures (4 pairs, 10 units)"
      ~columns:[ "fail prob"; "ALL"; "ISP rep"; "ISP sat%"; "OPT rep" ]
  in
  List.iter
    (fun p ->
      let alls = ref [] and isps = ref [] and opts = ref [] in
      for _ = 1 to runs do
        let rng = Rng.split master in
        let demands = feasible_demands ~rng ~count:4 ~amount:10.0 g in
        let failure =
          Netrec_disrupt.Models.uniform ~rng ~p_vertex:p ~p_edge:p g
        in
        let inst =
          Instance.make ~graph:g ~demands ~failure ()
        in
        let bv, be = Netrec_disrupt.Failure.counts failure in
        alls := float_of_int (bv + be) :: !alls;
        let sol, _ = Isp.solve inst in
        isps := measure_precomputed inst sol ~seconds:0.0 :: !isps;
        let warm = best_incumbent inst sol in
        let opt =
          Netrec_heuristics.Opt.solve ~node_limit:200 ~incumbent:warm inst
        in
        opts :=
          float_of_int (Instance.total_repairs opt.Netrec_heuristics.Opt.solution)
          :: !opts
      done;
      let avg = Netrec_util.Stats.mean in
      Table.add_float_row ~decimals:1 uniform_t
        [ p; avg !alls; mean !isps "repairs_total";
          100.0 *. mean !isps "satisfied"; avg !opts ])
    [ 0.2; 0.4; 0.6; 0.8 ];
  [ metric_t; sched_t; srt_t; uniform_t ]
