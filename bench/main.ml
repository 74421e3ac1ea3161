(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (Figs. 3-7 and 9; Figs. 1, 2, 8 are illustrations and
   Table I is notation) and writes the run record BENCH_metrics.json:
   the deterministic gate blocks plus the counters, histograms and
   spans of the regeneration.  Timings that back a claim come from
   perfbench, not from here.

   Usage:
     main.exe               all figures (default settings)
     main.exe quick         all figures (1 run/point, small OPT budget)
     main.exe fig3 ... ablation [quick]
                            the named figures only
   -jN anywhere sets the pool size (default 2). *)

module Table = Netrec_util.Table
module Obs = Netrec_obs.Obs
module E = Netrec_experiments

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

(* Machine-readable run record: the deterministic gate blocks (Gates),
   plus the counter/gauge/histogram/span snapshot and progress summary
   of the figure regeneration.  `recover metrics validate` checks it
   against the gate table in lib/obs/metrics_diff.ml. *)
let write_bench_metrics ~mode =
  let gates = E.Gates.blocks () in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"schema\":\"%s\"," Netrec_obs.Metrics_diff.schema;
  Printf.bprintf buf "\"mode\":\"%s\"" mode;
  List.iter
    (fun (block, kvs) ->
      Printf.bprintf buf ",\"%s\":{" block;
      List.iteri
        (fun i (name, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "\"%s\":%d" name v)
        kvs;
      Buffer.add_char buf '}')
    gates;
  Buffer.add_string buf ",\"metrics\":";
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
  let jobs, args =
    match Array.to_list Sys.argv with
    | [] -> (None, [])
    | _ :: rest -> parse_jobs rest
  in
  let figs = List.filter (fun f -> f <> "quick") args in
  (match List.filter (fun f -> not (List.mem f all_figures)) figs with
  | [] -> ()
  | unknown ->
    List.iter (Printf.eprintf "unknown figure %S\n") unknown;
    Printf.eprintf "figures: %s\n" (String.concat " " all_figures);
    exit 2);
  let quick_run = List.mem "quick" args in
  let s = if quick_run then quick else default in
  let s = match jobs with Some j -> { s with jobs = j } | None -> s in
  Obs.set_enabled true;
  match figs with
  | [] ->
    run_all s;
    write_bench_metrics ~mode:(if quick_run then "quick" else "default")
  | figs ->
    List.iter (run_figure s) figs;
    write_bench_metrics ~mode:(String.concat "+" figs)
