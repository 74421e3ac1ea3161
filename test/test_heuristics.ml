open Netrec_graph
open Netrec_core
open Netrec_heuristics
module Rng = Netrec_util.Rng
module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
module Routing = Netrec_flow.Routing

let path_graph ?(capacity = 10.0) n =
  Graph.make ~n ~edges:(List.init (n - 1) (fun i -> (i, i + 1, capacity))) ()

let fixture () =
  Graph.make ~n:6
    ~edges:
      [ (0, 1, 10.0); (1, 2, 10.0); (0, 3, 10.0); (3, 4, 10.0); (4, 5, 10.0);
        (2, 5, 10.0); (1, 4, 3.0) ]
    ()

let demand ?(amount = 5.0) src dst = Commodity.make ~src ~dst ~amount

let make_inst ?vertex_cost ?edge_cost g demands failure =
  Instance.make ?vertex_cost ?edge_cost ~graph:g ~demands ~failure ()

let satisfied inst sol = Evaluate.satisfied_fraction inst sol

(* ---- SRT ---- *)

let test_srt_repairs_unique_path () =
  let g = path_graph 4 in
  let inst = make_inst g [ demand 0 3 ] (Failure.complete g) in
  let sol = Srt.solve inst in
  Alcotest.(check int) "vertices" 4 (Instance.vertex_repairs sol);
  Alcotest.(check int) "edges" 3 (Instance.edge_repairs sol);
  Alcotest.(check (float 1e-6)) "served" 1.0 (satisfied inst sol)

let test_srt_shares_saturated_path () =
  (* Two demands of 6 between the same far endpoints on a path with
     capacity 10: SRT treats them independently against nominal caps and
     repairs the single shortest path only -> 12 > 10 loses demand. *)
  let g = path_graph ~capacity:10.0 4 in
  let inst =
    make_inst g [ demand ~amount:6.0 0 3; demand ~amount:6.0 0 3 ]
      (Failure.complete g)
  in
  let sol = Srt.solve inst in
  Alcotest.(check int) "one corridor" 3 (Instance.edge_repairs sol);
  Alcotest.(check bool) "demand loss" true (satisfied inst sol < 1.0 -. 1e-6)

let test_srt_repairs_isolated_endpoints () =
  let g = path_graph 3 in
  let failure = Failure.of_lists g ~vertices:[ 0; 2 ] ~edges:[] in
  let inst = make_inst g [ demand 0 2 ] failure in
  let sol = Srt.solve inst in
  Alcotest.(check bool) "endpoints repaired" true
    (List.mem 0 sol.Instance.repaired_vertices
    && List.mem 2 sol.Instance.repaired_vertices)

let test_srt_nothing_broken () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.none g) in
  let sol = Srt.solve inst in
  Alcotest.(check int) "no repairs" 0 (Instance.total_repairs sol)

let test_srt_residual_avoids_loss () =
  (* The saturated-shared-path scenario where plain SRT loses demand:
     SRT-R routes the second demand over residual capacities and repairs
     a second corridor if one exists. *)
  let g = fixture () in
  let inst =
    make_inst g
      [ demand ~amount:10.0 0 5; demand ~amount:10.0 0 5 ]
      (Failure.complete g)
  in
  let plain = Srt.solve inst in
  let residual = Srt.solve_residual inst in
  Alcotest.(check (float 1e-6)) "SRT-R serves all" 1.0 (satisfied inst residual);
  Alcotest.(check bool) "SRT-R repairs at least as much" true
    (Instance.total_repairs residual >= Instance.total_repairs plain);
  Alcotest.(check bool) "routing valid" true (Instance.valid inst residual)

let test_srt_residual_commits_routing () =
  let g = path_graph 4 in
  let inst = make_inst g [ demand ~amount:5.0 0 3 ] (Failure.complete g) in
  let sol = Srt.solve_residual inst in
  Alcotest.(check (float 1e-6)) "routes everything" 5.0
    (Netrec_flow.Routing.total_routed sol.Instance.routing)

(* Pins the marginal-cost [else 0.0] semantics of the residual length
   function (see srt.ml): on a demand with no path at all, the length
   fallbacks must not conjure a phantom route — the demand is recorded
   with an empty path list and the shortfall is visible in the routing,
   while the repairs still certify structurally. *)
let test_srt_residual_unroutable () =
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 10.0); (2, 3, 10.0) ] ()
  in
  let inst =
    make_inst g
      [ demand ~amount:5.0 0 1; demand ~amount:5.0 0 2 ]
      (Failure.complete g)
  in
  let sol = Srt.solve_residual inst in
  let routed_for s t =
    List.fold_left
      (fun acc a ->
        let d = a.Netrec_flow.Routing.demand in
        if d.Commodity.src = s && d.Commodity.dst = t then
          acc
          +. List.fold_left
               (fun acc (_, x) -> acc +. x)
               0.0 a.Netrec_flow.Routing.paths
        else acc)
      0.0 sol.Instance.routing
  in
  Alcotest.(check (float 1e-9)) "routable demand served" 5.0 (routed_for 0 1);
  Alcotest.(check (float 1e-9)) "unroutable demand empty" 0.0 (routed_for 0 2);
  Alcotest.(check bool) "still certifies" true
    (Netrec_check.Check.ok (Netrec_check.Check.certify inst sol))

(* ---- Path_enum ---- *)

let test_path_enum_counts_cycle () =
  (* On a 4-cycle there are exactly 2 simple paths between opposite
     vertices. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 0, 1.0) ] ()
  in
  let { Path_enum.paths; truncated; _ } =
    Path_enum.enumerate g [ demand 0 2 ]
  in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  Alcotest.(check bool) "complete" false truncated

let test_path_enum_respects_cap () =
  let g = Netrec_graph.Generate.complete ~n:7 ~capacity:1.0 in
  let { Path_enum.paths; truncated; _ } =
    Path_enum.enumerate ~max_per_pair:10 g [ demand 0 6 ]
  in
  Alcotest.(check bool) "truncated" true truncated;
  Alcotest.(check bool) "capped" true (List.length paths <= 10)

let test_path_enum_max_hops () =
  let g = path_graph 5 in
  let { Path_enum.paths; _ } =
    Path_enum.enumerate ~max_hops:2 g [ demand 0 4 ]
  in
  Alcotest.(check int) "too far" 0 (List.length paths)

let test_path_enum_paths_are_simple () =
  let g = fixture () in
  let { Path_enum.paths; _ } = Path_enum.enumerate g [ demand 0 5 ] in
  List.iter
    (fun (_, p) ->
      Alcotest.(check bool) "simple" true (Paths.is_simple g 0 p))
    paths

(* ---- Greedy ---- *)

let test_grd_com_single_demand () =
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:10.0 0 5 ] (Failure.complete g) in
  let sol = Greedy.grd_com inst in
  Alcotest.(check (float 1e-6)) "served" 1.0 (satisfied inst sol);
  Alcotest.(check bool) "has routing" true (sol.Instance.routing <> []);
  Alcotest.(check bool) "valid" true (Instance.valid inst sol)

let test_grd_nc_no_loss_property () =
  (* GRD-NC stops only when the full demand is routable: no loss. *)
  let g = fixture () in
  let inst =
    make_inst g [ demand ~amount:10.0 0 5; demand ~amount:8.0 2 3 ]
      (Failure.complete g)
  in
  let sol = Greedy.grd_nc inst in
  Alcotest.(check (float 1e-6)) "served" 1.0 (satisfied inst sol)

let test_grd_nc_already_routable () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.none g) in
  let sol = Greedy.grd_nc inst in
  Alcotest.(check int) "no repairs" 0 (Instance.total_repairs sol)

let test_grd_com_not_more_than_nc () =
  (* The commitment variant repairs at most as much on this fixture. *)
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:10.0 0 5 ] (Failure.complete g) in
  let com = Greedy.grd_com inst and nc = Greedy.grd_nc inst in
  Alcotest.(check bool) "com <= nc" true
    (Instance.total_repairs com <= Instance.total_repairs nc)

(* ---- Postpass ---- *)

let test_postpass_drops_redundant () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.complete g) in
  (* Start from repairing everything; pruning must keep only the path. *)
  let pruned = Postpass.prune inst (Instance.repair_all inst) in
  Alcotest.(check int) "minimal" 5 (Instance.total_repairs pruned);
  Alcotest.(check (float 1e-6)) "still feasible" 1.0 (satisfied inst pruned)

let test_postpass_keeps_needed () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.complete g) in
  let minimal =
    { Instance.repaired_vertices = [ 0; 1; 2 ];
      repaired_edges = [ 0; 1 ];
      routing = Routing.empty }
  in
  let pruned = Postpass.prune inst minimal in
  Alcotest.(check int) "unchanged" 5 (Instance.total_repairs pruned)

let test_postpass_infeasible_input_unchanged () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.complete g) in
  let bad =
    { Instance.repaired_vertices = [ 0 ];
      repaired_edges = [];
      routing = Routing.empty }
  in
  let out = Postpass.prune inst bad in
  Alcotest.(check int) "unchanged" 1 (Instance.total_repairs out)

(* ---- Opt (MILP) ---- *)

let test_opt_path_exact () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.complete g) in
  let r = Opt.solve ~node_limit:200 inst in
  Alcotest.(check bool) "proved" true r.Opt.proved;
  Alcotest.(check int) "3 vertices + 2 edges" 5
    (Instance.total_repairs r.Opt.solution);
  Alcotest.(check (float 1e-6)) "served" 1.0 (satisfied inst r.Opt.solution)

let test_opt_picks_cheap_route () =
  (* Two disjoint 2-hop routes, one with an expensive relay: OPT takes
     the cheap one. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 10.0); (1, 3, 10.0); (0, 2, 10.0); (2, 3, 10.0) ] ()
  in
  let vertex_cost = [| 1.0; 10.0; 1.0; 1.0 |] in
  let inst = make_inst ~vertex_cost g [ demand 0 3 ] (Failure.complete g) in
  let r = Opt.solve ~node_limit:500 inst in
  Alcotest.(check bool) "avoids relay 1" false
    (List.mem 1 r.Opt.solution.Instance.repaired_vertices);
  Alcotest.(check (float 1e-6)) "cost" 5.0 r.Opt.objective

let test_opt_no_worse_than_incumbent () =
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:10.0 0 5 ] (Failure.complete g) in
  let isp, _ = Isp.solve inst in
  let r = Opt.solve ~node_limit:50 ~incumbent:isp inst in
  Alcotest.(check bool) "not worse" true
    (Instance.total_repairs r.Opt.solution <= Instance.total_repairs isp)

let test_opt_proxy_on_oversize () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  let r = Opt.solve ~var_budget:2 inst in
  Alcotest.(check bool) "proxy not proved" false r.Opt.proved;
  Alcotest.(check int) "no nodes" 0 r.Opt.nodes;
  Alcotest.(check (float 1e-6)) "still feasible" 1.0
    (satisfied inst r.Opt.solution)

let test_opt_partial_failure () =
  (* Only one edge of the working path is broken; OPT repairs exactly
     what is needed. *)
  let g = path_graph 4 in
  let failure = Failure.of_lists g ~vertices:[] ~edges:[ 1 ] in
  let inst = make_inst g [ demand 0 3 ] failure in
  let r = Opt.solve ~node_limit:100 inst in
  Alcotest.(check int) "one edge" 1 (Instance.total_repairs r.Opt.solution)

(* The exact-solver accelerations change the work, never the answer: on
   the pinned lp_gate scenario, presolve off, cuts off and Dantzig
   pricing each prove the full pipeline's objective exactly.  They are
   also what closes a harder scenario: under a 600-node budget the
   mid-size Gaussian instance stays unproved with all three off and
   proves with all three on. *)
let test_opt_accelerations () =
  let pinned = Netrec_experiments.Gates.opt_scenario () in
  let full = Opt.solve pinned in
  Alcotest.(check bool) "full pipeline proves" true full.Opt.proved;
  List.iter
    (fun (name, solve) ->
      let r = solve pinned in
      Alcotest.(check bool) (name ^ " proves") true r.Opt.proved;
      Alcotest.(check bool)
        (name ^ " proves the same objective")
        true
        (Float.equal r.Opt.objective full.Opt.objective))
    [ ("presolve off", fun i -> Opt.solve ~presolve:false i);
      ("cuts off", fun i -> Opt.solve ~cuts:false i);
      ("dantzig pricing", fun i -> Opt.solve ~pricing:Netrec_lp.Tuning.Dantzig i) ];
  let midsize () =
    let g = Netrec_topo.Bell_canada.graph () in
    let rng = Rng.create 5 in
    let demands =
      Netrec_experiments.Common.feasible_demands ~rng ~count:5 ~amount:10.0 g
    in
    make_inst g demands (Netrec_disrupt.Models.gaussian ~rng ~variance:120.0 g)
  in
  let base =
    Opt.solve ~presolve:false ~cuts:false ~pricing:Netrec_lp.Tuning.Dantzig
      ~node_limit:600 (midsize ())
  in
  Alcotest.(check bool) "mid-size unproved without them" false base.Opt.proved;
  let accelerated = Opt.solve ~node_limit:600 (midsize ()) in
  Alcotest.(check bool) "mid-size proved with them" true accelerated.Opt.proved

(* Counter rises across [f ()], with the collector on. *)
let counter_rises keys f =
  let was = Netrec_obs.Obs.enabled () in
  Netrec_obs.Obs.set_enabled true;
  let before = List.map Netrec_obs.Obs.counter_value keys in
  let r = f () in
  let rises =
    List.map2 (fun k b -> Netrec_obs.Obs.counter_value k - b) keys before
  in
  Netrec_obs.Obs.set_enabled was;
  (r, rises)

(* Disaster [j] of perfbench's opt-sched catalog: Bell-Canada, two pairs
   of ten units, a Gaussian disaster of variance 30, all drawn from
   seed 1000 + j. *)
let catalog_disaster j =
  let g = Netrec_topo.Bell_canada.graph () in
  let rng = Rng.create (1000 + j) in
  let demands =
    Netrec_experiments.Common.feasible_demands ~rng ~count:2 ~amount:10.0 g
  in
  make_inst g demands (Netrec_disrupt.Models.gaussian ~rng ~variance:30.0 g)

(* The lp_gate flags pivot drift only beyond 10%, so a solver change that
   reorders one pivot passes it.  These OPT solves pin their work and
   answer exactly: basis pivots, B&B nodes, the objective's bits and the
   MD5 of the serialized solution, as the dense basis-inverse loops gave
   them.  All but the gate scenario rebuild the inverse, and catalog
   disaster 3 proves an objective that is not an integer. *)
let test_opt_pinned_work () =
  List.iter
    (fun (name, inst, pivots, nodes, bits, md5) ->
      let r, rises =
        counter_rises [ "simplex.pivots"; "milp.nodes" ] (fun () ->
            Opt.solve inst)
      in
      Alcotest.(check bool) (name ^ " proved") true r.Opt.proved;
      Alcotest.(check (list int))
        (name ^ " pivots, nodes")
        [ pivots; nodes ] rises;
      Alcotest.(check int64)
        (name ^ " objective bits") bits
        (Int64.bits_of_float r.Opt.objective);
      Alcotest.(check string) (name ^ " solution md5") md5
        (Digest.to_hex
           (Digest.string (Serialize.solution_to_string r.Opt.solution))))
    [ ( "gate scenario", Netrec_experiments.Gates.opt_scenario (), 6794, 43,
        0x4034000000000000L, "117ce4669343cd8cbd924f82959c67d4" );
      ( "catalog 1", catalog_disaster 1, 3980, 21, 0x4026000000000000L,
        "07f258e29422223fa9ca3025af0320d3" );
      ( "catalog 3", catalog_disaster 3, 2328, 12, 0x401c000000012534L,
        "759121721cc7b0ea1e9760dcbc33ce07" );
      ( "catalog 7", catalog_disaster 7, 3519, 31, 0x4026000000000000L,
        "34f70d6708d31ab5feaab1b336580b93" );
      ( "catalog 12", catalog_disaster 12, 4121, 23, 0x402e000000000000L,
        "0ac8967fe6ed4198ec6bc0330daa8767" );
      ( "catalog 14", catalog_disaster 14, 5762, 27, 0x4022000000000000L,
        "f6ff38faf0447c5178a60aa139aa3b48" ) ]

(* The cold-start counters: [simplex.cold_solves] counts the solves that
   start from the slack basis, [simplex.cold_pivots] the basis pivots made
   in them, [simplex.refactors] the successful inverse rebuilds. *)
let test_opt_cold_counters () =
  let keys =
    [ "simplex.pivots"; "simplex.cold_solves"; "simplex.cold_pivots";
      "simplex.refactors" ]
  in
  let solve () = Opt.solve (Netrec_experiments.Gates.opt_scenario ()) in
  let _, first = counter_rises keys solve in
  let _, again = counter_rises keys solve in
  Alcotest.(check (list int)) "a repeat solve rises the same" first again;
  (match first with
  | [ pivots; cold_solves; cold_pivots; _ ] ->
    Alcotest.(check bool) "cold solves counted" true (cold_solves > 0);
    Alcotest.(check bool) "cold pivots counted" true (cold_pivots > 0);
    Alcotest.(check bool) "cold pivots <= pivots" true (cold_pivots <= pivots)
  | _ -> assert false);
  (* The gate scenario never rebuilds its inverse; catalog disaster 3
     does, on the dual simplex's no-entering-column path. *)
  let _, rebuilds =
    counter_rises [ "simplex.refactors" ] (fun () ->
        Opt.solve (catalog_disaster 3))
  in
  Alcotest.(check bool) "rebuilds counted" true (List.hd rebuilds > 0);
  let module Lp = Netrec_lp.Lp in
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 () in
  let y = Lp.add_var p ~obj:2.0 () in
  Lp.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Ge 3.0;
  Lp.add_constraint p [ (x, 1.0) ] Lp.Le 2.0;
  let sol, rises = counter_rises keys (fun () -> Lp.solve p) in
  Alcotest.(check bool) "lp optimal" true (sol.Lp.status = Lp.Optimal);
  match rises with
  | [ pivots; cold_solves; cold_pivots; _ ] ->
    Alcotest.(check int) "one cold solve" 1 cold_solves;
    Alcotest.(check int) "its pivots are all cold" pivots cold_pivots;
    Alcotest.(check bool) "it pivots" true (pivots > 0)
  | _ -> assert false

let opt_bounded_by_isp_prop =
  QCheck.Test.make ~name:"opt never worse than isp" ~count:8 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 7) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:10 ~p:0.35 ~capacity:8.0
      in
      if not (Traverse.is_connected g) then true
      else begin
        let inst =
          make_inst g
            [ Commodity.make ~src:0 ~dst:(Graph.nv g - 1) ~amount:4.0 ]
            (Failure.complete g)
        in
        let isp, _ = Isp.solve inst in
        let r = Opt.solve ~node_limit:60 ~incumbent:isp inst in
        Instance.total_repairs r.Opt.solution <= Instance.total_repairs isp
        && satisfied inst r.Opt.solution >= 1.0 -. 1e-6
      end)

(* ---- Mcf_heuristic ---- *)

let test_mcf_orders () =
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:10.0 0 5 ] (Failure.complete g) in
  match Mcf_heuristic.solve inst with
  | Some r ->
    let mcb = Instance.total_repairs r.Mcf_heuristic.mcb in
    let mcw = Instance.total_repairs r.Mcf_heuristic.mcw in
    let sup = Instance.total_repairs r.Mcf_heuristic.support in
    Alcotest.(check bool) "mcb <= support" true (mcb <= sup);
    Alcotest.(check bool) "support <= mcw" true (sup <= mcw);
    Alcotest.(check bool) "positive objective" true
      (r.Mcf_heuristic.lp_objective > 0.0)
  | None -> Alcotest.fail "expected a solution"

let test_mcf_infeasible () =
  let g = path_graph ~capacity:1.0 3 in
  let inst = make_inst g [ demand ~amount:5.0 0 2 ] (Failure.complete g) in
  Alcotest.(check bool) "none" true (Mcf_heuristic.solve inst = None)

let test_mcf_mcb_feasible () =
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:10.0 0 5 ] (Failure.complete g) in
  match Mcf_heuristic.solve inst with
  | Some r ->
    Alcotest.(check (float 1e-6)) "mcb serves all" 1.0
      (satisfied inst r.Mcf_heuristic.mcb)
  | None -> Alcotest.fail "expected a solution"

let repairs_string (sol : Instance.solution) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "v:%s e:%s" (ints sol.Instance.repaired_vertices)
    (ints sol.Instance.repaired_edges)

(* The relaxation's other tests check orderings and feasibility, and the
   work gate flags its pivots only beyond 10% drift.  These solves pin
   its answer and work exactly: the bits of the LP optimum, the support,
   MCB and MCW repair lists, and the simplex pivots of both LPs, as the
   relaxation's model gave them when they were written. *)
let test_mcf_pinned_work () =
  let bell_canada_complete () =
    let g = Netrec_topo.Bell_canada.graph () in
    let rng = Rng.create 1 in
    let demands =
      Netrec_experiments.Common.feasible_demands ~rng ~count:4 ~amount:10.0 g
    in
    make_inst g demands (Failure.complete g)
  in
  List.iter
    (fun (name, inst, bits, support, mcb, mcw, pivots) ->
      match
        counter_rises [ "simplex.pivots" ] (fun () -> Mcf_heuristic.solve inst)
      with
      | None, _ -> Alcotest.failf "%s: no relaxation" name
      | Some r, rises ->
        Alcotest.(check int64)
          (name ^ " lp objective bits") bits
          (Int64.bits_of_float r.Mcf_heuristic.lp_objective);
        Alcotest.(check (list string))
          (name ^ " support, mcb, mcw")
          [ support; mcb; mcw ]
          (List.map repairs_string
             [ r.Mcf_heuristic.support; r.Mcf_heuristic.mcb;
               r.Mcf_heuristic.mcw ]);
        Alcotest.(check (list int)) (name ^ " pivots") [ pivots ] rises)
    [ ( "bell-canada complete", bell_canada_complete (), 0x4072c00000000000L,
        "v:0,1,4,5,6,7,10,11,13,20,26,27,29,31,33,35,38 \
         e:0,1,2,3,4,5,6,11,12,20,21,22,25,29,31,51",
        "v:0,1,4,5,6,7,10,11,13,20,26,27,29,31,33,35,38 \
         e:0,1,2,3,4,5,6,11,12,20,21,22,25,29,31,51",
        "v:0,1,4,5,6,7,10,11,13,20,26,27,28,29,30,31,33,35,38 \
         e:0,1,2,3,4,5,6,11,12,18,19,20,21,22,25,29,31,51,52,54",
        549 );
      ( "catalog 1", catalog_disaster 1, 0x4049000000000000L,
        "v:15,16,17,19,20,27,33 e:5,14,15,40",
        "v:15,16,17,19,20,27,33 e:5,14,15,40",
        "v:15,16,17,19,20,27,28,30,33 e:5,14,15,16,17,18,40,53", 290 ) ]

(* ---- Steiner ---- *)

let test_steiner_forest_single_pair () =
  let g = path_graph 4 in
  let f = Steiner.forest g ~weight:(fun _ -> 1.0) ~pairs:[ (0, 3) ] in
  Alcotest.(check int) "whole path" 3 (List.length f)

let test_steiner_forest_two_pairs_disjoint () =
  let g = path_graph 6 in
  (* Pairs (0,1) and (4,5): two disjoint single edges. *)
  let f = Steiner.forest g ~weight:(fun _ -> 1.0) ~pairs:[ (0, 1); (4, 5) ] in
  Alcotest.(check int) "two edges" 2 (List.length f)

let test_steiner_forest_connects () =
  let rng = Rng.create 3 in
  let g = Netrec_graph.Generate.erdos_renyi ~rng ~n:20 ~p:0.2 ~capacity:1.0 in
  let pairs = [ (0, 19); (1, 18) ] in
  let connected_pairs =
    List.filter (fun (s, t) -> Traverse.reachable g s t) pairs
  in
  let f = Steiner.forest g ~weight:(fun _ -> 1.0) ~pairs in
  let in_forest = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace in_forest e ()) f;
  List.iter
    (fun (s, t) ->
      Alcotest.(check bool) "pair connected in forest" true
        (Traverse.reachable ~edge_ok:(Hashtbl.mem in_forest) g s t))
    connected_pairs

let test_steiner_forest_ignores_disconnected () =
  let g = Graph.make ~n:4 ~edges:[ (0, 1, 1.0) ] () in
  let f = Steiner.forest g ~weight:(fun _ -> 1.0) ~pairs:[ (2, 3) ] in
  Alcotest.(check int) "empty" 0 (List.length f)

let test_steiner_recovery_connectivity () =
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:1.0 0 5 ] (Failure.complete g) in
  let sol = Steiner.recovery inst in
  Alcotest.(check bool) "valid" true (Instance.valid inst sol);
  (* With a 1-unit demand, connectivity implies full service. *)
  Alcotest.(check (float 1e-6)) "served" 1.0 (satisfied inst sol)

let steiner_2approx_prop =
  QCheck.Test.make ~name:"GW forest within 2x of DP optimum" ~count:10
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 11) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:16 ~p:0.25 ~capacity:1.0
      in
      if not (Traverse.is_connected g) then true
      else begin
        let pairs = [ (0, 15); (1, 14) ] in
        let f = Steiner.forest g ~weight:(fun _ -> 1.0) ~pairs in
        (* Compare edge counts against the exact Steiner forest using the
           DP (via optimal_total_repairs = 2E* + #groups). *)
        match Exact_forest.optimal_total_repairs g ~pairs with
        | None -> true
        | Some total ->
          (* total = 2 E* + groups, groups in {1,2} -> E* >= (total-2)/2 *)
          let estar_min = (total - 2) / 2 in
          List.length f <= max 1 (2 * max 1 estar_min) + 2
      end)

(* ---- Exact_forest ---- *)

let test_exact_forest_path () =
  let g = path_graph 5 in
  Alcotest.(check (option int)) "tree hops"
    (Some 4)
    (Exact_forest.steiner_tree_hops g ~terminals:[ 0; 4 ]);
  Alcotest.(check (option int)) "repairs = 2*4+1"
    (Some 9)
    (Exact_forest.optimal_total_repairs g ~pairs:[ (0, 4) ])

let test_exact_forest_star () =
  (* Star with 3 leaves: spanning all three terminals needs all 3 edges. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 1.0); (0, 2, 1.0); (0, 3, 1.0) ] ()
  in
  Alcotest.(check (option int)) "steiner point used"
    (Some 3)
    (Exact_forest.steiner_tree_hops g ~terminals:[ 1; 2; 3 ])

let test_exact_forest_partition_beats_tree () =
  (* Two far-apart pairs on a long path: separate components win. *)
  let g = path_graph 10 in
  (* pairs (0,1) and (8,9): optimal = two single-edge trees = 2*(2*1+1)=6,
     while one tree spanning all four costs 2*9+1 = 19. *)
  Alcotest.(check (option int)) "forest splits"
    (Some 6)
    (Exact_forest.optimal_total_repairs g ~pairs:[ (0, 1); (8, 9) ])

let test_exact_forest_shared_endpoint_merged () =
  let g = path_graph 5 in
  (* (0,2) and (2,4) share vertex 2: single component, tree edges 4. *)
  Alcotest.(check (option int)) "merged"
    (Some 9)
    (Exact_forest.optimal_total_repairs g ~pairs:[ (0, 2); (2, 4) ])

let test_exact_forest_disconnected () =
  let g = Graph.make ~n:4 ~edges:[ (0, 1, 1.0) ] () in
  Alcotest.(check (option int)) "none" None
    (Exact_forest.optimal_total_repairs g ~pairs:[ (2, 3) ])

let test_exact_forest_clique_trivial () =
  (* The paper's p=1 observation: on a clique with 5 disjoint unit pairs
     every algorithm finds the trivial solution of 15 repairs
     (2 endpoints + 1 edge per pair). *)
  let g = Netrec_graph.Generate.complete ~n:12 ~capacity:1000.0 in
  let pairs = [ (0, 1); (2, 3); (4, 5); (6, 7); (8, 9) ] in
  Alcotest.(check (option int)) "trivial 15" (Some 15)
    (Exact_forest.optimal_total_repairs g ~pairs)

let test_opt_nothing_broken () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.none g) in
  let r = Opt.solve ~node_limit:50 inst in
  Alcotest.(check (float 1e-9)) "zero cost" 0.0 r.Opt.objective;
  Alcotest.(check int) "no repairs" 0 (Instance.total_repairs r.Opt.solution)

let test_greedy_nothing_broken () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.none g) in
  Alcotest.(check int) "grd-com idle" 0
    (Instance.total_repairs (Greedy.grd_com inst));
  Alcotest.(check int) "grd-nc idle" 0
    (Instance.total_repairs (Greedy.grd_nc inst))

let test_mcf_partial_failure_minimal () =
  (* Only one edge of the unique path is broken: the relaxation's support
     must be exactly that edge (plus no vertices). *)
  let g = path_graph 4 in
  let failure = Failure.of_lists g ~vertices:[] ~edges:[ 1 ] in
  let inst = make_inst g [ demand ~amount:5.0 0 3 ] failure in
  match Mcf_heuristic.solve inst with
  | Some r ->
    Alcotest.(check int) "one repair" 1
      (Instance.total_repairs r.Mcf_heuristic.support);
    Alcotest.(check int) "mcb same" 1 (Instance.total_repairs r.Mcf_heuristic.mcb)
  | None -> Alcotest.fail "expected a solution"

let test_postpass_prunes_steiner_extra () =
  (* Give the postpass a solution with one obviously useless repair. *)
  let g = fixture () in
  let inst =
    make_inst g [ demand ~amount:5.0 0 2 ]
      (Failure.of_lists g ~vertices:[ 1; 4 ] ~edges:[])
  in
  (* Repairing both 1 and 4 is overkill: 0-1-2 works with just vertex 1. *)
  let fat =
    { Instance.repaired_vertices = [ 1; 4 ];
      repaired_edges = [];
      routing = Netrec_flow.Routing.empty }
  in
  let slim = Postpass.prune inst fat in
  Alcotest.(check int) "one vertex suffices" 1 (Instance.total_repairs slim)

let test_exact_forest_matches_milp () =
  (* Cross-check the DP against the MILP on small connectivity-only
     instances. *)
  let rng = Rng.create 5 in
  for _ = 1 to 3 do
    let g =
      Netrec_graph.Generate.erdos_renyi ~rng:(Rng.split rng) ~n:9 ~p:0.35
        ~capacity:100.0
    in
    if Traverse.is_connected g then begin
      let pairs = [ (0, 8); (1, 7) ] in
      let demands =
        List.map (fun (s, t) -> Commodity.make ~src:s ~dst:t ~amount:1.0) pairs
      in
      let inst = make_inst g demands (Failure.complete g) in
      let milp = Opt.solve ~node_limit:4000 inst in
      let dp = Exact_forest.optimal_total_repairs g ~pairs in
      if milp.Opt.proved then
        Alcotest.(check (option int))
          "dp = milp"
          (Some (Instance.total_repairs milp.Opt.solution))
          dp
    end
  done

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netrec_heuristics"
    [ ( "srt",
        [ tc "unique path" test_srt_repairs_unique_path;
          tc "saturated shared path" test_srt_shares_saturated_path;
          tc "isolated endpoints" test_srt_repairs_isolated_endpoints;
          tc "nothing broken" test_srt_nothing_broken;
          tc "residual avoids loss" test_srt_residual_avoids_loss;
          tc "residual commits routing" test_srt_residual_commits_routing;
          tc "srt residual unroutable" test_srt_residual_unroutable ] );
      ( "path_enum",
        [ tc "cycle counts" test_path_enum_counts_cycle;
          tc "respects cap" test_path_enum_respects_cap;
          tc "max hops" test_path_enum_max_hops;
          tc "paths simple" test_path_enum_paths_are_simple ] );
      ( "greedy",
        [ tc "grd-com single" test_grd_com_single_demand;
          tc "grd-nc no loss" test_grd_nc_no_loss_property;
          tc "grd-nc already routable" test_grd_nc_already_routable;
          tc "com <= nc" test_grd_com_not_more_than_nc;
          tc "nothing broken" test_greedy_nothing_broken ] );
      ( "postpass",
        [ tc "drops redundant" test_postpass_drops_redundant;
          tc "keeps needed" test_postpass_keeps_needed;
          tc "infeasible unchanged" test_postpass_infeasible_input_unchanged;
          tc "prunes extra vertex" test_postpass_prunes_steiner_extra ] );
      ( "opt",
        [ tc "path exact" test_opt_path_exact;
          tc "picks cheap route" test_opt_picks_cheap_route;
          tc "no worse than incumbent" test_opt_no_worse_than_incumbent;
          tc "proxy on oversize" test_opt_proxy_on_oversize;
          tc "partial failure" test_opt_partial_failure;
          tc "nothing broken" test_opt_nothing_broken;
          Alcotest.test_case "accelerations keep the optimum" `Slow
            test_opt_accelerations;
          QCheck_alcotest.to_alcotest opt_bounded_by_isp_prop;
          tc "pinned work" test_opt_pinned_work;
          tc "cold counters" test_opt_cold_counters ] );
      ( "mcf_heuristic",
        [ tc "orders" test_mcf_orders;
          tc "infeasible" test_mcf_infeasible;
          tc "mcb feasible" test_mcf_mcb_feasible;
          tc "partial failure minimal" test_mcf_partial_failure_minimal;
          tc "pinned work" test_mcf_pinned_work ] );
      ( "steiner",
        [ tc "single pair" test_steiner_forest_single_pair;
          tc "two pairs disjoint" test_steiner_forest_two_pairs_disjoint;
          tc "connects" test_steiner_forest_connects;
          tc "ignores disconnected" test_steiner_forest_ignores_disconnected;
          tc "recovery connectivity" test_steiner_recovery_connectivity;
          QCheck_alcotest.to_alcotest steiner_2approx_prop ] );
      ( "exact_forest",
        [ tc "path" test_exact_forest_path;
          tc "star" test_exact_forest_star;
          tc "partition beats tree" test_exact_forest_partition_beats_tree;
          tc "shared endpoint merged" test_exact_forest_shared_endpoint_merged;
          tc "disconnected" test_exact_forest_disconnected;
          tc "clique trivial" test_exact_forest_clique_trivial;
          tc "matches milp" test_exact_forest_matches_milp ] ) ]
