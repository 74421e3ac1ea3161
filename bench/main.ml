(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (Figs. 3-7 and 9; Figs. 1, 2, 8 are illustrations and
   Table I is notation) and writes the run record BENCH_metrics.json:
   the deterministic gate blocks plus the counters, gauges and
   histograms of the regeneration.  Timings that back a claim come from
   perfbench, not from here.  The figures, their order and their
   settings come from Netrec_experiments.Figures, the table `recover
   experiment` runs too.

   Usage:
     main.exe               all figures (Figures.default)
     main.exe quick         all figures (Figures.quick)
     main.exe fig3 ... ablation [quick]
                            the named figures only
   -jN anywhere sets the pool size (default 2). *)

module Table = Netrec_util.Table
module Obs = Netrec_obs.Obs
module E = Netrec_experiments

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

(* [fig9-xl] writes results/fig9_xl_*.csv, and so on. *)
let run_figure ~pool s fig =
  emit_tables
    (String.map (function '-' -> '_' | c -> c) fig)
    (E.Figures.run ~pool s fig)

let run_all ~pool s =
  List.iter
    (fun fig ->
      let g0 = Obs.gc_snapshot () in
      let (), secs =
        Obs.timed ("bench." ^ fig) (fun () -> run_figure ~pool s fig)
      in
      let d = Obs.gc_delta g0 (Obs.gc_snapshot ()) in
      Printf.printf
        "(%s regenerated in %.1f s; gc: %.1f Mw minor, %.1f Mw major, %d \
         compaction(s))\n\n\
         %!"
        fig secs
        (d.Obs.minor_words /. 1e6)
        (d.Obs.major_words /. 1e6)
        d.Obs.gc_compactions)
    E.Figures.names;
  (* The solver-progress trajectories (residual demand, incumbents,
     bounds) behind the figures, for plot_results.gp. *)
  (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Obs.write_events "results/progress.jsonl";
  Printf.printf "wrote results/progress.jsonl\n%!"

(* Machine-readable run record: the deterministic gate blocks (Gates),
   plus the counter/gauge/histogram snapshot and progress summary
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
  (match List.filter (fun f -> not (List.mem f E.Figures.names)) figs with
  | [] -> ()
  | unknown ->
    List.iter (Printf.eprintf "unknown figure %S\n") unknown;
    Printf.eprintf "figures: %s\n" (String.concat " " E.Figures.names);
    exit 2);
  let quick_run = List.mem "quick" args in
  let s = if quick_run then E.Figures.quick else E.Figures.default in
  (* Two domains by default: exercises the deterministic pool (and
     records its counters in BENCH_metrics.json) while staying cheap on
     small machines.  Tables are identical for any pool size. *)
  let pool = E.Common.Pool.create ~jobs:(Option.value jobs ~default:2) in
  Obs.set_enabled true;
  match figs with
  | [] ->
    run_all ~pool s;
    write_bench_metrics ~mode:(if quick_run then "quick" else "default")
  | figs ->
    List.iter (run_figure ~pool s) figs;
    write_bench_metrics ~mode:(String.concat "+" figs)
