(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (Figs. 3-7 and 9; Figs. 1, 2, 8 are illustrations and
   Table I is notation) and runs one Bechamel micro-benchmark per
   table/figure family.

   Usage:
     main.exe               benches + all figures (default settings)
     main.exe quick         benches + all figures (1 run/point, small OPT budget)
     main.exe bench         Bechamel micro-benchmarks only
     main.exe serve         daemon load generator only (16 clients)
     main.exe fig3 ... fig9 a single figure
     main.exe figures       all figures, no micro-benchmarks *)

module G = Netrec_graph.Graph
module Rng = Netrec_util.Rng
module Table = Netrec_util.Table
module Obs = Netrec_obs.Obs
module Failure = Netrec_disrupt.Failure
module Instance = Netrec_core.Instance
module E = Netrec_experiments

(* ---- Bechamel micro-benchmarks: one Test.make per figure family ---- *)

let bell_canada_instance () =
  let g = Netrec_topo.Bell_canada.graph () in
  let rng = Rng.create 1 in
  let demands = E.Common.feasible_demands ~rng ~count:4 ~amount:10.0 g in
  Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()

let gaussian_instance () =
  let g = Netrec_topo.Bell_canada.graph () in
  let rng = Rng.create 2 in
  let demands = E.Common.feasible_demands ~rng ~count:4 ~amount:10.0 g in
  let failure = Netrec_disrupt.Models.gaussian ~rng ~variance:70.0 g in
  Instance.make ~graph:g ~demands ~failure ()

let er_instance () =
  let rng = Rng.create 3 in
  let g =
    Netrec_graph.Generate.erdos_renyi ~rng ~n:100 ~p:0.3 ~capacity:1000.0
  in
  let demands =
    E.Common.feasible_demands ~rng ~distinct:true ~count:5 ~amount:1.0 g
  in
  (g, Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ())

let caida_instance () =
  let g = Netrec_topo.Caida.graph () in
  let rng = Rng.create 4 in
  let demands =
    E.Common.feasible_demands ~rng ~distinct:true ~count:4 ~amount:22.0 g
  in
  Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()

let micro_benchmarks () =
  let open Bechamel in
  let bc = bell_canada_instance () in
  let gauss = gaussian_instance () in
  let er_g, er = er_instance () in
  let caida = caida_instance () in
  let xl_smoke = E.Fig9_xl.smoke_scenario () in
  let er_pairs =
    List.map
      (fun d -> (d.Netrec_flow.Commodity.src, d.Netrec_flow.Commodity.dst))
      er.Instance.demands
  in
  let tests =
    [ Test.make ~name:"fig3:mcf-relaxation-lp" (Staged.stage (fun () ->
          ignore (Netrec_heuristics.Mcf_heuristic.solve bc)));
      Test.make ~name:"fig4:isp-bell-canada" (Staged.stage (fun () ->
          ignore (Netrec_core.Isp.solve bc)));
      Test.make ~name:"fig4:grd-com-bell-canada" (Staged.stage (fun () ->
          ignore (Netrec_heuristics.Greedy.grd_com bc)));
      Test.make ~name:"fig5:srt-bell-canada" (Staged.stage (fun () ->
          ignore (Netrec_heuristics.Srt.solve bc)));
      Test.make ~name:"fig6:isp-gaussian" (Staged.stage (fun () ->
          ignore (Netrec_core.Isp.solve gauss)));
      Test.make ~name:"fig7:isp-erdos-renyi" (Staged.stage (fun () ->
          ignore (Netrec_core.Isp.solve er)));
      Test.make ~name:"fig7:steiner-forest-dp" (Staged.stage (fun () ->
          ignore
            (Netrec_heuristics.Exact_forest.optimal_total_repairs er_g
               ~pairs:er_pairs)));
      Test.make ~name:"fig9:isp-caida" (Staged.stage (fun () ->
          ignore (Netrec_core.Isp.solve caida)));
      (* Complete destruction covers the whole graph, so the sharded
         solver delegates here: this measures the delegation overhead
         against fig9:isp-caida (acceptance: within 10%, identical
         cost). *)
      Test.make ~name:"fig9:shard-caida" (Staged.stage (fun () ->
          ignore (Netrec_shard.Shard.solve caida)));
      (* The pinned 5k scale-free Gaussian scenario on the sharded
         path: the time/run behind the xl_gate counters. *)
      Test.make ~name:"fig9-xl:shard-synth-5k" (Staged.stage (fun () ->
          ignore (Netrec_shard.Shard.solve xl_smoke)));
      (* Greedy + local search on the pinned scheduling smoke scenario:
         the time/run behind the sched_gate counters. *)
      Test.make ~name:"sched:greedy-ls-smoke" (Staged.stage (fun () ->
          let module Sched = Netrec_sched.Sched in
          let inst = E.Fig_sched.smoke_scenario () in
          let cap = Sched.capacity ~crews:E.Fig_sched.smoke_crews () in
          let greedy = Sched.greedy ~cap inst (Instance.repair_all inst) in
          ignore (Sched.local_search ~cap inst (Sched.order_of greedy))));
      Test.make ~name:"opt:bell-canada-gaussian" (Staged.stage (fun () ->
          ignore (Netrec_heuristics.Opt.solve gauss)));
      Test.make ~name:"mcf-lp:feasible-bell-canada" (Staged.stage (fun () ->
          ignore
            (Netrec_flow.Mcf_lp.feasible
               ~cap:(G.capacity bc.Instance.graph)
               bc.Instance.graph bc.Instance.demands))) ]
  in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 2.0) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  print_endline "== Micro-benchmarks (Bechamel, monotonic clock) ==";
  let collected = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ clock ] test in
      let analyzed = Analyze.all ols clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (v :: _) -> v
            | Some [] | None -> nan
          in
          let ms = ns /. 1e6 in
          Printf.printf "  %-28s %12.3f ms/run\n%!" name ms;
          collected := (name, ms) :: !collected)
        analyzed)
    tests;
  print_newline ();
  List.rev !collected

(* ---- daemon load generator ---- *)

module Server = Netrec_serve.Server
module Client = Netrec_serve.Client
module Protocol = Netrec_serve.Protocol
module Inject = Netrec_serve.Inject

(* Deterministic query mix over the Abilene topology: every client
   issues the same (seeded) stream of broken-set/demand variants, a
   quarter of which repeat one fixed disaster so the plan cache gets
   hits, under mild fault injection so the breaker/shed path is also on
   the measured profile. *)
let serve_query ~nv ~ne ci qi =
  if (ci + qi) mod 4 = 0 then
    { Protocol.algorithm = Protocol.Isp;
      deadline_s = Some 10.0;
      no_cache = false;
      demands = [ (0, nv - 1, 2.0) ];
      broken_vertices = [ 1 ];
      broken_edges = [ 0; 1 ] }
  else begin
    let rng = Rng.create (0x5eed + (ci * 131) + qi) in
    let algorithm =
      match qi mod 3 with
      | 0 -> Protocol.Isp
      | 1 -> Protocol.Fallback
      | _ -> Protocol.Grd_com
    in
    let src = Rng.int rng nv in
    let dst = (src + 1 + Rng.int rng (nv - 1)) mod nv in
    let broken_v =
      List.init (1 + Rng.int rng 2) (fun _ -> Rng.int rng nv)
      |> List.filter (fun v -> v <> src && v <> dst)
    in
    let broken_e = List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng ne) in
    { Protocol.algorithm;
      deadline_s = Some 10.0;
      no_cache = false;
      demands = [ (src, dst, 1.0 +. Rng.float rng 2.0) ];
      broken_vertices = broken_v;
      broken_edges = broken_e }
  end

let serve_bench ?(clients = 8) ?(per_client = 24) () =
  let g = Netrec_topo.Abilene.graph () in
  let nv = G.nv g and ne = G.ne g in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "netrec-bench-%d.sock" (Unix.getpid ()))
  in
  let address = Server.Unix_socket path in
  let inject =
    match Inject.parse "fail=0.03,slow_ms=2,slow_rate=0.2,seed=11" with
    | Ok t -> t
    | Error msg -> failwith msg
  in
  let cfg =
    { (Server.default_config address) with
      Server.jobs = 2;
      queue_cap = 128;
      inject;
      log = ignore }
  in
  let server = Server.start cfg g in
  let lat = Array.make (clients * per_client) nan in
  let ok = Atomic.make 0
  and err = Atomic.make 0
  and hits = Atomic.make 0
  and shed = Atomic.make 0 in
  let client ci =
    match Client.connect address with
    | Error e -> failwith (Client.error_to_string e)
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for qi = 0 to per_client - 1 do
            let q = serve_query ~nv ~ne ci qi in
            let t0 = Unix.gettimeofday () in
            (match Client.query c q with
            | Ok (Protocol.Ok_plan r) ->
              Atomic.incr ok;
              if r.Protocol.cached then Atomic.incr hits;
              if r.Protocol.shed then Atomic.incr shed
            | Ok (Protocol.Error _) -> Atomic.incr err
            | Ok _ | Error _ -> Atomic.incr err);
            lat.((ci * per_client) + qi) <-
              1000.0 *. (Unix.gettimeofday () -. t0)
          done)
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun ci -> Thread.create client ci) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  Server.stop server;
  Server.wait server;
  (* Latencies were measured client-side; they enter the collector here,
     from the main thread, after every server thread is joined — the
     per-domain Obs state never sees concurrent writers. *)
  Array.iter
    (fun ms -> if not (Float.is_nan ms) then Obs.observe "serve.client_latency_ms" ms)
    lat;
  let total = clients * per_client in
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let q p = sorted.(min (total - 1) (int_of_float (p *. float_of_int total))) in
  Printf.printf
    "== Daemon load generator (%d clients x %d queries, inject on) ==\n" clients
    per_client;
  Printf.printf
    "  %d ok (%d cached, %d shed)  %d structured error(s)  in %.2f s  \
     (%.0f req/s)\n"
    (Atomic.get ok) (Atomic.get hits) (Atomic.get shed) (Atomic.get err)
    elapsed
    (float_of_int total /. elapsed);
  Printf.printf "  client latency: p50 %.2f ms  p90 %.2f ms  p99 %.2f ms\n\n%!"
    (q 0.5) (q 0.9) (q 0.99)

(* ---- figure regeneration ---- *)

type settings = { runs : int; opt_nodes : int; jobs : int }

(* Two domains by default: exercises the deterministic pool (and records
   its counters in BENCH_metrics.json) while staying cheap on small
   machines.  Tables and journal bytes are identical for any [jobs]. *)
let default = { runs = 3; opt_nodes = 800; jobs = 2 }
let quick = { runs = 1; opt_nodes = 60; jobs = 2 }

(* Print each table and also drop it as CSV under results/ so the series
   can be re-plotted without re-running anything. *)
let emit_tables fig tables =
  (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iteri
    (fun i t ->
      Table.print t;
      let path = Printf.sprintf "results/%s_%d.csv" fig (i + 1) in
      let oc = open_out path in
      output_string oc (Table.to_csv t);
      output_char oc '\n';
      close_out oc)
    tables

let run_figure s fig =
  let pool = E.Common.Pool.create ~jobs:s.jobs in
  match fig with
  | "fig3" -> emit_tables "fig3" (E.Fig3.run ~pool ~runs:s.runs ~opt_nodes:s.opt_nodes ())
  | "fig4" -> emit_tables "fig4" (E.Fig4.run ~pool ~runs:s.runs ~opt_nodes:s.opt_nodes ())
  | "fig5" -> emit_tables "fig5" (E.Fig5.run ~pool ~runs:s.runs ~opt_nodes:s.opt_nodes ())
  | "fig6" -> emit_tables "fig6" (E.Fig6.run ~pool ~runs:s.runs ~opt_nodes:s.opt_nodes ())
  | "fig7" -> emit_tables "fig7" (E.Fig7.run ~pool ~runs:s.runs ())
  | "fig9" -> emit_tables "fig9" (E.Fig9.run ~pool ~runs:s.runs ())
  | "fig9-xl" ->
    emit_tables "fig9_xl"
      (E.Fig9_xl.run ~pool ~runs:(min 2 s.runs)
         ~sizes:(if s.runs = 1 then [ 20_000; 100_000 ] else E.Fig9_xl.default_sizes)
         ())
  | "fig-sched" ->
    emit_tables "fig_sched" (E.Fig_sched.run ~pool ~runs:s.runs ())
  | "fig-opt" ->
    emit_tables "fig_opt" (E.Fig_opt.run ~pool ~runs:s.runs ())
  | "ablation" -> emit_tables "ablation" (E.Ablation.run ~runs:s.runs ())
  | other -> Printf.eprintf "unknown figure %S\n" other

let all_figures =
  [ "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig9"; "fig9-xl"; "fig-sched";
    "fig-opt"; "ablation" ]

let run_all s =
  List.iter
    (fun fig ->
      let g0 = Obs.gc_snapshot () in
      let (), secs = Obs.timed ("bench." ^ fig) (fun () -> run_figure s fig) in
      let d = Obs.gc_delta g0 (Obs.gc_snapshot ()) in
      Printf.printf
        "(%s regenerated in %.1f s; gc: %.1f Mw minor, %.1f Mw major, %d \
         compaction(s))\n\n\
         %!"
        fig secs
        (d.Obs.minor_words /. 1e6)
        (d.Obs.major_words /. 1e6)
        d.Obs.gc_compactions)
    all_figures;
  (* The solver-progress trajectories (residual demand, incumbents,
     bounds) behind the figures, for plot_results.gp. *)
  (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Obs.write_events "results/progress.jsonl";
  Printf.printf "wrote results/progress.jsonl\n%!"

(* Deterministic LP work gate: exact counter deltas for one full OPT
   solve of the gaussian Bell Canada scenario.  Unlike the wall-clock
   micro-benchmarks these integers are machine-independent, so CI can
   hold the line on simplex/branch-and-bound work regressions exactly. *)
let lp_gate_metrics () =
  let inst = gaussian_instance () in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let keys =
    [ "simplex.pivots"; "simplex.bound_flips"; "simplex.solves";
      "simplex.warm_starts"; "simplex.phase1_skipped";
      "simplex.dse_pivots"; "simplex.dse_resets"; "milp.nodes";
      "milp.nodes_pruned"; "presolve.runs"; "presolve.vars_fixed";
      "presolve.rows_dropped"; "presolve.bounds_tightened";
      "presolve.coefs_tightened"; "cuts.separated"; "cuts.added";
      "cuts.rejected"; "cuts.root_solves"; "cuts.aged_out" ]
  in
  let before = List.map (fun k -> (k, Obs.counter_value k)) keys in
  let r = Netrec_heuristics.Opt.solve inst in
  let deltas = List.map (fun (k, v) -> (k, Obs.counter_value k - v)) before in
  Obs.set_enabled was;
  ("opt.proved", if r.Netrec_heuristics.Opt.proved then 1 else 0)
  :: ("opt.nodes", r.Netrec_heuristics.Opt.nodes)
  :: deltas

(* Deterministic xl work gate: the sharded solver on the pinned 5k
   scale-free Gaussian smoke scenario.  Shard/cut/fixup counts, sampled
   centrality work, hop-search work (bidir.scanned) and the certificate
   are machine-independent integers, so CI can hold the line on both
   sharding-shape and correctness regressions exactly
   (check.violations must stay 0). *)
let xl_gate_metrics () =
  let inst = E.Fig9_xl.smoke_scenario () in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let keys =
    [ "centrality.sampled_recomputed"; "centrality.sampled_skipped";
      "bidir.scanned" ]
  in
  let before = List.map (fun k -> (k, Obs.counter_value k)) keys in
  let sol, st = Netrec_shard.Shard.solve inst in
  let deltas = List.map (fun (k, v) -> (k, Obs.counter_value k - v)) before in
  Obs.set_enabled was;
  let module Shard = Netrec_shard.Shard in
  [ ("xl.certified", if Netrec_check.Check.ok st.Shard.certificate then 1 else 0);
    ("check.violations", List.length st.Shard.certificate.Netrec_check.Check.violations);
    ("xl.repairs_total", Instance.total_repairs sol);
    ("isp.shard_count", st.Shard.shards);
    ("isp.shard_region_vertices", st.Shard.region_vertices);
    ("isp.shard_cut_demands", st.Shard.cut_demands);
    ("isp.shard_fixup_paths", st.Shard.fixup_paths);
    ("isp.shard_delegated", if st.Shard.delegated then 1 else 0) ]
  @ deltas

(* Deterministic scheduling gate: greedy, greedy + local search and the
   MILP oracle on the pinned two-corridor smoke scenario.  AUC and
   regret enter as microunits so the block stays integer-valued like
   the other gates; scripts/check_sched.sh asserts that the oracle
   proves optimality, the refined plan stays within 5% regret
   (sched.regret_microunits <= 50_000) and every round certifies. *)
let sched_gate_metrics () =
  let module Sched = Netrec_sched.Sched in
  let inst = E.Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:E.Fig_sched.smoke_crews () in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let keys =
    [ "sched.plans"; "sched.rounds"; "sched.evals"; "sched.ls_passes";
      "sched.moves_tried"; "sched.moves_applied"; "sched.oracle_solves";
      "sched.oracle_nodes" ]
  in
  let before = List.map (fun k -> (k, Obs.counter_value k)) keys in
  let greedy = Sched.greedy ~cap inst (Instance.repair_all inst) in
  let refined, _ = Sched.local_search ~cap inst (Sched.order_of greedy) in
  let oracle =
    match Sched.oracle ~cap inst (E.Fig_sched.smoke_elements ()) with
    | Ok r -> r
    | Error _ -> failwith "sched gate: oracle refused the smoke scenario"
  in
  let deltas = List.map (fun (k, v) -> (k, Obs.counter_value k - v)) before in
  Obs.set_enabled was;
  let micro x = int_of_float (Float.round (1e6 *. x)) in
  let certified =
    List.for_all Netrec_check.Check.ok (Sched.certify_rounds inst refined)
  in
  [ ("sched.oracle_proved", if oracle.Sched.proved then 1 else 0);
    ("sched.plan_rounds", List.length refined.Sched.rounds);
    ("sched.greedy_auc_microunits", micro greedy.Sched.auc);
    ("sched.ls_auc_microunits", micro refined.Sched.auc);
    ("sched.oracle_auc_microunits", micro oracle.Sched.plan.Sched.auc);
    ( "sched.regret_microunits",
      micro (Sched.regret ~oracle:oracle.Sched.plan refined) );
    ("sched.certified", if certified then 1 else 0) ]
  @ deltas

(* Machine-readable run record: micro-benchmark estimates, the
   deterministic LP, xl and sched work gates, plus the counter/gauge/
   histogram/span snapshot and progress summary of the figure
   regeneration.  `recover metrics validate` checks it against the gate
   table in lib/obs/metrics_diff.ml. *)
let write_bench_metrics ~mode ~benchmarks =
  let lp_gate = lp_gate_metrics () in
  let xl_gate = xl_gate_metrics () in
  let sched_gate = sched_gate_metrics () in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"schema\":\"%s\"," Netrec_obs.Metrics_diff.schema;
  Printf.bprintf buf "\"mode\":\"%s\",\"benchmarks\":{" mode;
  List.iteri
    (fun i (name, ms) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\"%s\":%.6f" name ms)
    benchmarks;
  List.iter
    (fun (block, kvs) ->
      Printf.bprintf buf "},\"%s\":{" block;
      List.iteri
        (fun i (name, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "\"%s\":%d" name v)
        kvs)
    [ ("lp_gate", lp_gate); ("xl_gate", xl_gate); ("sched_gate", sched_gate) ];
  Buffer.add_string buf "},\"metrics\":";
  Buffer.add_string buf (Obs.metrics_json ());
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_metrics.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_metrics.json\n%!"

(* The xl smoke run behind scripts/check_xl.sh: solve the pinned 5k
   scale-free Gaussian scenario on the sharded solver with a -jN pool
   and print only deterministic facts (no wall clock), so the script
   can diff -j1 against -j4 byte-for-byte, grep the certificate and
   hold the hop-search work under its ceiling. *)
let xl_smoke ~jobs =
  let inst = E.Fig9_xl.smoke_scenario () in
  let pool = E.Common.Pool.create ~jobs in
  let sol, st = Netrec_shard.Shard.solve ~pool inst in
  let scanned = Obs.counter_value "bidir.scanned" in
  let module Shard = Netrec_shard.Shard in
  let ids l = String.concat "," (List.map string_of_int (List.sort compare l)) in
  Printf.printf "xl-smoke: n=%d ne=%d demands=%d\n"
    (G.nv inst.Instance.graph) (G.ne inst.Instance.graph)
    (List.length inst.Instance.demands);
  Printf.printf
    "region=%d shards=%d cut=%d fixup=%d delegated=%b\n"
    st.Shard.region_vertices st.Shard.shards st.Shard.cut_demands
    st.Shard.fixup_paths st.Shard.delegated;
  Printf.printf "repaired_vertices=[%s]\nrepaired_edges=[%s]\n"
    (ids sol.Instance.repaired_vertices)
    (ids sol.Instance.repaired_edges);
  Printf.printf "repair_cost=%.6f\n" (Instance.repair_cost inst sol);
  Printf.printf "satisfied=%.6f\n"
    (Netrec_core.Evaluate.satisfied_fraction inst sol);
  Printf.printf "violations=%d\ncertified=%b\n"
    (List.length st.Shard.certificate.Netrec_check.Check.violations)
    (Netrec_check.Check.ok st.Shard.certificate);
  (* Merged over every pool domain, so the same for any -j. *)
  Printf.printf "bidir.scanned=%d\n" scanned

(* The sched smoke run behind scripts/check_sched.sh: schedule the
   pinned two-corridor scenario with greedy + local search on a -jN
   pool, prove the optimum with the MILP oracle, and print only
   deterministic facts (no wall clock), so the script can diff -j1
   against -j4 byte-for-byte and grep the gate facts. *)
let sched_smoke ~jobs =
  let module Sched = Netrec_sched.Sched in
  let inst = E.Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:E.Fig_sched.smoke_crews () in
  let pool = E.Common.Pool.create ~jobs in
  let el_str = function
    | `Vertex v -> Printf.sprintf "v%d" v
    | `Edge e -> Printf.sprintf "e%d" e
  in
  let round_str r =
    Printf.sprintf "[%s] cost=%.1f satisfied=%.6f"
      (String.concat "," (List.map el_str r.Sched.elements))
      r.Sched.cost r.Sched.satisfied
  in
  let greedy = Sched.greedy ~cap inst (Instance.repair_all inst) in
  let refined, stats =
    Sched.local_search ~pool ~cap inst (Sched.order_of greedy)
  in
  let oracle =
    match Sched.oracle ~cap inst (E.Fig_sched.smoke_elements ()) with
    | Ok r -> r
    | Error _ -> failwith "sched-smoke: oracle refused the smoke scenario"
  in
  Printf.printf "sched-smoke: n=%d ne=%d elements=%d crews=%d\n"
    (G.nv inst.Instance.graph) (G.ne inst.Instance.graph)
    (List.length (E.Fig_sched.smoke_elements ()))
    E.Fig_sched.smoke_crews;
  List.iteri
    (fun i r -> Printf.printf "round %d: %s\n" (i + 1) (round_str r))
    refined.Sched.rounds;
  Printf.printf "greedy_auc=%.6f\nls_auc=%.6f\noracle_auc=%.6f\n"
    greedy.Sched.auc refined.Sched.auc oracle.Sched.plan.Sched.auc;
  Printf.printf "ls_passes=%d ls_moves_applied=%d\n" stats.Sched.passes
    stats.Sched.moves_applied;
  Printf.printf "oracle_proved=%b\nregret=%.6f\ncertified=%b\n"
    oracle.Sched.proved
    (Sched.regret ~oracle:oracle.Sched.plan refined)
    (List.for_all Netrec_check.Check.ok (Sched.certify_rounds inst refined))

(* The opt smoke run behind scripts/check_opt.sh: one full OPT solve of
   the pinned lp_gate scenario with the exact-solver accelerations on
   (presolve + cuts + dual steepest edge), then one solve per
   acceleration individually disabled, printing only deterministic facts
   (no wall clock).  The script asserts the pivot/node ceilings, that
   every variant proves optimality, and that the proved objective is
   bit-identical across variants — the differential safety net for the
   model-side performance layer.  The midsize row is a harder Gaussian
   scenario under a node budget that only the accelerated solver closes:
   base (no presolve, no cuts, Dantzig) must leave it unproved. *)
let opt_smoke () =
  let module Opt = Netrec_heuristics.Opt in
  let counters =
    [ "simplex.pivots"; "milp.nodes"; "cuts.added"; "cuts.root_solves";
      "presolve.runs"; "simplex.dse_pivots"; "mcf.feasible_solves";
      "mcf.feasible_pivots"; "mcf.max_scale_solves"; "mcf.max_scale_pivots" ]
  in
  let deltas f =
    let before = List.map (fun k -> (k, Obs.counter_value k)) counters in
    let r = f () in
    (r, List.map (fun (k, v) -> (k, Obs.counter_value k - v)) before)
  in
  let row name ?presolve ?cuts ?pricing ?node_limit inst =
    let r, ds =
      deltas (fun () -> Opt.solve ?presolve ?cuts ?pricing ?node_limit inst)
    in
    Printf.printf "%s: proved=%b objective=%.6f nodes=%d %s\n" name
      r.Opt.proved r.Opt.objective r.Opt.nodes
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) ds));
    r
  in
  Printf.printf "opt-smoke: pinned bell-canada gaussian (seed 2, variance 70)\n";
  ignore (row "pinned" (gaussian_instance ()));
  ignore (row "nopresolve" ~presolve:false (gaussian_instance ()));
  ignore (row "nocuts" ~cuts:false (gaussian_instance ()));
  ignore
    (row "dantzig" ~pricing:Netrec_lp.Tuning.Dantzig (gaussian_instance ()));
  let midsize () =
    let g = Netrec_topo.Bell_canada.graph () in
    let rng = Rng.create 5 in
    let demands = E.Common.feasible_demands ~rng ~count:5 ~amount:10.0 g in
    let failure = Netrec_disrupt.Models.gaussian ~rng ~variance:120.0 g in
    Instance.make ~graph:g ~demands ~failure ()
  in
  let base =
    row "midsize-base" ~presolve:false ~cuts:false
      ~pricing:Netrec_lp.Tuning.Dantzig ~node_limit:600 (midsize ())
  in
  let full = row "midsize-full" ~node_limit:600 (midsize ()) in
  Printf.printf "midsize: base_proved=%b full_proved=%b\n"
    base.Netrec_heuristics.Opt.proved full.Netrec_heuristics.Opt.proved

(* [-jN] anywhere on the command line sets the pool size for figure
   regeneration (default 2; results are identical for any N). *)
let parse_jobs args =
  List.fold_left
    (fun (jobs, rest) arg ->
      if String.length arg > 2 && String.sub arg 0 2 = "-j" then
        match int_of_string_opt (String.sub arg 2 (String.length arg - 2)) with
        | Some n when n >= 1 -> (Some n, rest)
        | _ -> (jobs, arg :: rest)
      else (jobs, arg :: rest))
    (None, []) args
  |> fun (jobs, rest) -> (jobs, List.rev rest)

let () =
  (* Micro-benchmarks run with the collector disabled so the estimates
     reflect production cost; figure regeneration runs with it on so the
     run record captures solver work counters. *)
  let jobs, args =
    match Array.to_list Sys.argv with
    | [] -> (None, [])
    | _ :: rest -> parse_jobs rest
  in
  let with_jobs s = match jobs with Some j -> { s with jobs = j } | None -> s in
  match args with
  | [] ->
    let benchmarks = micro_benchmarks () in
    Obs.set_enabled true;
    run_all (with_jobs default);
    serve_bench ();
    write_bench_metrics ~mode:"default" ~benchmarks
  | [ "quick" ] ->
    let benchmarks = micro_benchmarks () in
    Obs.set_enabled true;
    run_all (with_jobs quick);
    serve_bench ();
    write_bench_metrics ~mode:"quick" ~benchmarks
  | [ "serve" ] ->
    Obs.set_enabled true;
    serve_bench ~clients:16 ~per_client:32 ();
    write_bench_metrics ~mode:"serve" ~benchmarks:[]
  | [ "bench" ] ->
    let benchmarks = micro_benchmarks () in
    write_bench_metrics ~mode:"bench" ~benchmarks
  | [ "xl-smoke" ] ->
    Obs.set_enabled true;
    xl_smoke ~jobs:(Option.value ~default:1 jobs)
  | [ "sched-smoke" ] ->
    Obs.set_enabled true;
    sched_smoke ~jobs:(Option.value ~default:1 jobs)
  | [ "opt-smoke" ] ->
    Obs.set_enabled true;
    opt_smoke ()
  | [ "figures" ] ->
    Obs.set_enabled true;
    run_all (with_jobs default);
    write_bench_metrics ~mode:"figures" ~benchmarks:[]
  | figs ->
    let s = if List.mem "quick" figs then quick else default in
    let figs = List.filter (fun f -> f <> "quick") figs in
    Obs.set_enabled true;
    List.iter (run_figure (with_jobs s)) figs;
    write_bench_metrics ~mode:(String.concat "+" figs) ~benchmarks:[]
