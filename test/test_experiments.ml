open Netrec_experiments
module Rng = Netrec_util.Rng
module Table = Netrec_util.Table
module Instance = Netrec_core.Instance
module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity

let bc = Netrec_topo.Bell_canada.graph ()

(* ---- Common ---- *)

let test_average () =
  let m x =
    { Common.repairs_v = x;
      repairs_e = 2.0 *. x;
      repairs_total = 3.0 *. x;
      satisfied = x /. 10.0;
      seconds = x }
  in
  let avg = Common.average [ m 1.0; m 3.0 ] in
  Alcotest.(check (float 1e-9)) "v" 2.0 avg.Common.repairs_v;
  Alcotest.(check (float 1e-9)) "e" 4.0 avg.Common.repairs_e;
  Alcotest.(check (float 1e-9)) "total" 6.0 avg.Common.repairs_total;
  Alcotest.(check (float 1e-9)) "satisfied" 0.2 avg.Common.satisfied

let test_average_empty_rejected () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Common.average: no measurements") (fun () ->
      ignore (Common.average []))

let test_percent () =
  Alcotest.(check (float 1e-9)) "percent" 42.0 (Common.percent 0.42)

let test_feasible_demands_routable () =
  let rng = Rng.create 11 in
  let demands = Common.feasible_demands ~rng ~count:4 ~amount:12.0 bc in
  Alcotest.(check int) "count" 4 (List.length demands);
  match
    Netrec_flow.Oracle.routable
      ~cap:(Netrec_graph.Graph.capacity bc)
      bc demands
  with
  | Netrec_flow.Oracle.Routable _ -> ()
  | _ -> Alcotest.fail "generated demands must be routable when intact"

let test_complete_instance_breaks_everything () =
  let rng = Rng.create 3 in
  let inst = Common.complete_instance ~rng ~count:2 ~amount:5.0 bc in
  let bv, be = Failure.counts inst.Instance.failure in
  Alcotest.(check int) "all vertices" (Netrec_graph.Graph.nv bc) bv;
  Alcotest.(check int) "all edges" (Netrec_graph.Graph.ne bc) be

let test_measure_runs_algorithm () =
  let rng = Rng.create 5 in
  let inst = Common.complete_instance ~rng ~count:2 ~amount:5.0 bc in
  let m = Common.measure inst (fun () -> Netrec_heuristics.Srt.solve inst) in
  Alcotest.(check bool) "positive repairs" true (m.Common.repairs_total > 0.0);
  Alcotest.(check bool) "sane satisfaction" true
    (m.Common.satisfied >= 0.0 && m.Common.satisfied <= 1.0);
  Alcotest.(check bool) "timed" true (m.Common.seconds >= 0.0)

(* ---- figure integration smoke (single cheap point each) ---- *)

let row_floats table_row = List.map float_of_string table_row

let test_fig4_single_point () =
  match Fig4.run ~runs:1 ~opt_nodes:5 ~seed:1 ~max_pairs:1 () with
  | [ edges_t; nodes_t; total_t; sat_t ] ->
    List.iter
      (fun t ->
        let csv = Table.to_csv t in
        Alcotest.(check bool) "two lines" true
          (List.length (String.split_on_char '\n' csv) = 2))
      [ edges_t; nodes_t; total_t; sat_t ];
    (* Check series sanity on the total-repairs table: ISP <= ALL and
       OPT <= ISP. *)
    let csv = Table.to_csv total_t in
    (match String.split_on_char '\n' csv with
    | [ _; row ] -> (
      match row_floats (String.split_on_char ',' row) with
      | [ _pairs; isp; opt; _srt; _gcom; _gnc; all ] ->
        Alcotest.(check bool) "isp <= all" true (isp <= all);
        Alcotest.(check bool) "opt <= isp" true (opt <= isp +. 1e-9)
      | _ -> Alcotest.fail "unexpected arity")
    | _ -> Alcotest.fail "unexpected table shape")
  | _ -> Alcotest.fail "fig4 must emit four tables"

let test_ablation_single_run () =
  match Ablation.run ~runs:1 ~seed:2 () with
  | metric_t :: sched_t :: srt_t :: _ ->
    let rows t = List.length (String.split_on_char '\n' (Table.to_csv t)) - 1 in
    Alcotest.(check int) "metric rows" 3 (rows metric_t);
    Alcotest.(check int) "sched rows" 3 (rows sched_t);
    Alcotest.(check int) "srt rows" 3 (rows srt_t)
  | _ -> Alcotest.fail "ablation must emit its tables"

(* ---- Gates ---- *)

module Diff = Netrec_obs.Metrics_diff

(* Every gate block built live on a 1-domain and a 4-domain pool: the
   blocks are equal (counters merge over domains, so the pool size must
   not show), and each passes its row of the gate table through the
   same per-block check `recover metrics validate` runs. *)
let test_gate_blocks () =
  let build jobs = Gates.blocks ~pool:(Common.Pool.create ~jobs) () in
  let j1 = build 1 and j4 = build 4 in
  Alcotest.(check (list string))
    "one block per table row, in table order"
    (List.map (fun (g : Diff.gate) -> g.Diff.block) Diff.gates)
    (List.map fst j1);
  List.iter2
    (fun (block, kvs) (_, kvs4) ->
      Alcotest.(check (list (pair string int))) (block ^ ": -j1 = -j4") kvs kvs4;
      let row = List.find (fun (g : Diff.gate) -> g.Diff.block = block) Diff.gates in
      let doc =
        Diff.Json.Obj (List.map (fun (k, v) -> (k, Diff.Json.Num (float_of_int v))) kvs)
      in
      Alcotest.(check (list string)) (block ^ " passes its row") []
        (Diff.block_failures row doc))
    j1 j4

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "netrec_experiments"
    [ ( "common",
        [ tc "average" test_average;
          tc "average empty" test_average_empty_rejected;
          tc "percent" test_percent;
          tc "feasible demands routable" test_feasible_demands_routable;
          tc "complete instance" test_complete_instance_breaks_everything;
          tc "measure" test_measure_runs_algorithm ] );
      ("gates", [ slow "blocks: -j1 = -j4, each passes its row" test_gate_blocks ]);
      ( "figures",
        [ slow "fig4 single point" test_fig4_single_point;
          slow "ablation single run" test_ablation_single_run ] ) ]
