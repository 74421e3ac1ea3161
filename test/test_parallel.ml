(* Pool determinism and the run_jobs journal protocol.

   The guarantees under test: results (and journal bytes) are identical
   for every pool size; consume order is exactly the sequential order;
   exceptions surface at the sequential failure point; solver code is
   safe to run on worker domains. *)

module Pool = Netrec_parallel.Pool
module Journal = Netrec_experiments.Journal
module Common = Netrec_experiments.Common
module Rng = Netrec_util.Rng
module Graph = Netrec_graph.Graph
module Instance = Netrec_core.Instance
module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity

let pool jobs = Pool.create ~jobs

(* ---- Pool ---- *)

let test_map_matches_sequential () =
  let items = Array.init 100 (fun i -> i) in
  let f _ x = (x * 7) mod 13 in
  let seq = Pool.map (pool 1) f items in
  let par = Pool.map (pool 4) f items in
  Alcotest.(check (array int)) "identical results" seq par

let test_consume_in_order () =
  let order = ref [] in
  Pool.iter_ordered (pool 4)
    ~f:(fun _ x -> x * x)
    ~consume:(fun i v ->
      order := (i, v) :: !order)
    (Array.init 37 (fun i -> i));
  let got = List.rev !order in
  let expect = List.init 37 (fun i -> (i, i * i)) in
  Alcotest.(check (list (pair int int))) "sequential order" expect got

let test_exception_at_sequential_index () =
  (* f fails at 5 and 11; the caller must see index 5's exception after
     consuming exactly slots 0..4, like a sequential loop would. *)
  let consumed = ref [] in
  let boom = Failure "cell 5 failed" in
  (try
     Pool.iter_ordered (pool 4)
       ~f:(fun _ x -> if x = 5 || x = 11 then raise boom else x)
       ~consume:(fun i _ -> consumed := i :: !consumed)
       (Array.init 20 (fun i -> i));
     Alcotest.fail "expected the cell exception to propagate"
   with Failure msg ->
     Alcotest.(check string) "first failure wins" "cell 5 failed" msg);
  Alcotest.(check (list int)) "prefix consumed" [ 0; 1; 2; 3; 4 ]
    (List.rev !consumed)

let test_empty_and_singleton () =
  Pool.iter_ordered (pool 4)
    ~f:(fun _ x -> x)
    ~consume:(fun _ _ -> Alcotest.fail "no items to consume")
    [||];
  let hit = ref 0 in
  Pool.iter_ordered (pool 4)
    ~f:(fun _ x -> x + 1)
    ~consume:(fun i v ->
      Alcotest.(check (pair int int)) "singleton" (0, 42) (i, v);
      incr hit)
    [| 41 |];
  Alcotest.(check int) "consumed once" 1 !hit

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (Pool.default_jobs () >= 1)

(* ---- run_jobs ---- *)

(* Deterministic timing-free cells so journal bytes can be compared. *)
let mk_job i =
  { Common.point = Printf.sprintf "t:point=%d" (i / 3);
    run = (i mod 3) + 1;
    cells =
      (fun () ->
        [ ( "ALG",
            [ ("value", float_of_int (i * i)); ("index", float_of_int i) ] )
        ]) }

let test_run_jobs_results_order () =
  let jobs = List.init 12 mk_job in
  let seq = Common.run_jobs jobs in
  let par = Common.run_jobs ~pool:(pool 4) jobs in
  Alcotest.(check bool) "pool result = sequential result" true (seq = par);
  List.iteri
    (fun i cells ->
      match cells with
      | [ ("ALG", fields) ] ->
        Alcotest.(check (float 1e-9)) "job order kept"
          (float_of_int (i * i))
          (List.assoc "value" fields)
      | _ -> Alcotest.fail "unexpected cells shape")
    par

let with_temp_journal f =
  let path = Filename.temp_file "netrec_test_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let journal_bytes ~jobs_count ~pool_jobs =
  with_temp_journal (fun path ->
      let j = Journal.create ~opt_nodes:60 path in
      let jobs = List.init jobs_count mk_job in
      let pool = match pool_jobs with 1 -> None | n -> Some (pool n) in
      ignore (Common.run_jobs ~journal:j ?pool jobs);
      Journal.close j;
      read_file path)

let test_journal_bytes_identical () =
  let seq = journal_bytes ~jobs_count:15 ~pool_jobs:1 in
  let par = journal_bytes ~jobs_count:15 ~pool_jobs:4 in
  Alcotest.(check string) "-j4 journal = -j1 journal" seq par

let test_journal_resume_under_pool () =
  (* Complete a prefix sequentially, resume the rest on a pool: replayed
     pairs must not recompute and the final bytes must equal a clean
     sequential run's. *)
  let clean = journal_bytes ~jobs_count:12 ~pool_jobs:1 in
  let resumed =
    with_temp_journal (fun path ->
        let j = Journal.create ~opt_nodes:60 path in
        let jobs = List.init 12 mk_job in
        let prefix = List.filteri (fun i _ -> i < 5) jobs in
        ignore (Common.run_jobs ~journal:j prefix);
        Journal.close j;
        let j = Journal.create ~opt_nodes:60 path in
        let computed = ref 0 in
        let spy =
          List.map
            (fun jb ->
              { jb with
                Common.cells =
                  (fun () ->
                    incr computed;
                    jb.Common.cells ()) })
            jobs
        in
        let out = Common.run_jobs ~journal:j ~pool:(pool 4) spy in
        Journal.close j;
        Alcotest.(check int) "only the pending pairs computed" 7 !computed;
        Alcotest.(check int) "all cells returned" 12 (List.length out);
        read_file path)
  in
  Alcotest.(check string) "resumed journal = clean journal" clean resumed

(* ---- solver work on worker domains ---- *)

let test_isp_across_domains () =
  (* Real solver cells (ISP on small random instances) fanned across
     four domains must reproduce the sequential solutions exactly —
     this exercises the per-domain Dijkstra scratch and Obs state. *)
  let mk seed =
    let rng = Rng.create seed in
    let g =
      Netrec_graph.Generate.erdos_renyi ~rng ~n:12 ~p:0.35 ~capacity:10.0
    in
    let n = Graph.nv g in
    let demands = [ Commodity.make ~src:0 ~dst:(n - 1) ~amount:2.0 ] in
    Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()
  in
  let insts = Array.init 6 (fun i -> mk (i + 1)) in
  let solve _ inst = fst (Netrec_core.Isp.solve inst) in
  let seq = Pool.map (pool 1) solve insts in
  let par = Pool.map (pool 4) solve insts in
  Alcotest.(check bool) "solutions identical across domains" true
    (compare seq par = 0)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "netrec_parallel"
    [ ( "pool",
        [ tc "map matches sequential" `Quick test_map_matches_sequential;
          tc "consume in order" `Quick test_consume_in_order;
          tc "exception order" `Quick test_exception_at_sequential_index;
          tc "empty and singleton" `Quick test_empty_and_singleton;
          tc "default jobs" `Quick test_default_jobs_positive ] );
      ( "run_jobs",
        [ tc "results in job order" `Quick test_run_jobs_results_order;
          tc "journal bytes identical" `Quick test_journal_bytes_identical;
          tc "resume under pool" `Quick test_journal_resume_under_pool ] );
      ( "domains",
        [ tc "isp across domains" `Quick test_isp_across_domains ] ) ]
