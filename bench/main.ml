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
  let gauss = E.Gates.opt_scenario () in
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
  | other -> invalid_arg ("run_figure: unknown figure " ^ other)

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

(* Machine-readable run record: micro-benchmark estimates, the
   deterministic LP, xl and sched gate blocks (Gates), plus the counter/gauge/
   histogram/span snapshot and progress summary of the figure
   regeneration.  `recover metrics validate` checks it against the gate
   table in lib/obs/metrics_diff.ml. *)
let write_bench_metrics ~mode ~benchmarks =
  let gates = E.Gates.blocks () in
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
    gates;
  Buffer.add_string buf "},\"metrics\":";
  Buffer.add_string buf (Obs.metrics_json ());
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_metrics.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_metrics.json\n%!"

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
  | [ "figures" ] ->
    Obs.set_enabled true;
    run_all (with_jobs default);
    write_bench_metrics ~mode:"figures" ~benchmarks:[]
  | figs ->
    let s = if List.mem "quick" figs then quick else default in
    let figs = List.filter (fun f -> f <> "quick") figs in
    (match List.filter (fun f -> not (List.mem f all_figures)) figs with
    | [] -> ()
    | unknown ->
      List.iter (Printf.eprintf "unknown figure %S\n") unknown;
      Printf.eprintf "figures: %s\n" (String.concat " " all_figures);
      exit 2);
    Obs.set_enabled true;
    List.iter (run_figure (with_jobs s)) figs;
    write_bench_metrics ~mode:(String.concat "+" figs) ~benchmarks:[]
