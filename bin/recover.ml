(* Command-line front end: run a recovery algorithm on a topology under a
   disruption model and print the repair plan, or regenerate the paper's
   experiment tables.

   Examples:
     recover plan --topology bell-canada --pairs 4 --amount 10 \
                  --algorithm isp --disruption complete
     recover plan --topology caida --pairs 3 --amount 22 --algorithm srt
     recover plan --topology er --er-p 0.3 --algorithm isp \
                  --disruption gaussian --variance 50
     recover experiment fig4 --runs 3 --opt-nodes 800
     recover topology --topology bell-canada --format dot *)

open Cmdliner
module G = Netrec_graph.Graph
module Rng = Netrec_util.Rng
module Obs = Netrec_obs.Obs
module Isp = Netrec_core.Isp
module Failure = Netrec_disrupt.Failure
module Models = Netrec_disrupt.Models
module Commodity = Netrec_flow.Commodity
module Instance = Netrec_core.Instance
module Evaluate = Netrec_core.Evaluate
module H = Netrec_heuristics
module E = Netrec_experiments
module Check = Netrec_check.Check
module Budget = Netrec_resilience.Budget
module Chain = Netrec_resilience.Chain
module Breaker = Netrec_resilience.Breaker
module Server = Netrec_serve.Server
module Client = Netrec_serve.Client
module Protocol = Netrec_serve.Protocol
module Inject = Netrec_serve.Inject

(* ---- shared options ---- *)

let topology_arg =
  let doc =
    "Supply topology: bell-canada, abilene, caida, er, grid, ring, or a \
     synthetic scale-free spec $(i,synth:sf:n=100000,m=2,seed=1) \
     (optional keys cap=, jitter=; coordinates live in the unit square, \
     so pair --disruption gaussian with a small --variance, e.g. 1e-4)."
  in
  Arg.(value & opt string "bell-canada" & info [ "topology"; "t" ] ~doc)

let er_p_arg =
  let doc = "Edge probability for the er topology." in
  Arg.(value & opt float 0.3 & info [ "er-p" ] ~doc)

let seed_arg =
  let doc = "Random seed (demands, topology, disruption)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let pairs_arg =
  let doc = "Number of demand pairs." in
  Arg.(value & opt int 4 & info [ "pairs"; "p" ] ~doc)

let amount_arg =
  let doc = "Flow units per demand pair." in
  Arg.(value & opt float 10.0 & info [ "amount"; "a" ] ~doc)

let algorithm_arg =
  let doc =
    "Recovery algorithm: isp, shard (disaster-region sharded ISP, for xl \
     topologies), srt, grd-com, grd-nc, opt, steiner, fallback or all."
  in
  Arg.(value & opt string "isp" & info [ "algorithm"; "g" ] ~doc)

let disruption_arg =
  let doc = "Disruption model: complete, gaussian or uniform." in
  Arg.(value & opt string "complete" & info [ "disruption"; "d" ] ~doc)

let variance_arg =
  let doc = "Variance of the gaussian disruption." in
  Arg.(value & opt float 50.0 & info [ "variance" ] ~doc)

let fail_p_arg =
  let doc = "Element failure probability of the uniform disruption." in
  Arg.(value & opt float 0.5 & info [ "fail-p" ] ~doc)

let deadline_arg =
  let doc =
    "Overall wall-clock budget in seconds.  Solvers are anytime: when the \
     deadline trips they return their best feasible solution so far and \
     the output notes why it is degraded."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let certify_arg =
  let doc =
    "Certify every solution with the $(b,netrec_check) validator (repairs \
     subset of broken sets, routed paths over available elements only, \
     capacity and demand-volume respected, repair cost recomputed).  \
     Violations are printed and make the command exit non-zero; coverage is \
     counted on the check.certified / check.violations counters."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

(* ---- exact-solver tuning options (plan, experiment, check) ---- *)

let presolve_flag_arg =
  let doc =
    "Enable LP presolve in the exact solvers (fixed/dominated variable \
     elimination, redundant/forcing rows, bound strengthening and \
     coefficient tightening, with certified postsolve).  Pass \
     $(b,--presolve=false) to solve every LP un-reduced."
  in
  Arg.(value & opt bool true & info [ "presolve" ] ~docv:"BOOL" ~doc)

let cuts_flag_arg =
  let doc =
    "Enable Steiner-forest cutting planes (connectivity and cover cuts \
     separated from gate-scaled minimum cuts) in the MILP search.  Pass \
     $(b,--cuts=false) for plain branch-and-bound."
  in
  Arg.(value & opt bool true & info [ "cuts" ] ~docv:"BOOL" ~doc)

let pricing_conv =
  let parse s =
    match Netrec_lp.Tuning.pricing_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown pricing rule %S" s))
  in
  Arg.conv
    (parse, fun ppf p ->
       Format.pp_print_string ppf (Netrec_lp.Tuning.pricing_to_string p))

let pricing_flag_arg =
  let doc =
    "Simplex dual pricing rule for warm-started re-solves: $(b,dse) \
     (dual steepest edge, default) or $(b,dantzig) (most-infeasible \
     row)."
  in
  Arg.(
    value
    & opt pricing_conv Netrec_lp.Tuning.Dse
    & info [ "pricing" ] ~docv:"RULE" ~doc)

(* Evaluated for its side effect: stamp the process-wide solver defaults
   before any command body (or worker domain) runs. *)
let tuning_term =
  let set presolve cuts pricing =
    Netrec_lp.Tuning.set_presolve presolve;
    Netrec_lp.Tuning.set_cuts cuts;
    Netrec_lp.Tuning.set_pricing pricing
  in
  Term.(const set $ presolve_flag_arg $ cuts_flag_arg $ pricing_flag_arg)

(* ---- observability options (plan and experiment) ---- *)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON of all recorded spans to $(docv) \
     (open in about:tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write collected counters, gauges and span timings to $(docv) as JSON \
     Lines (one metric object per line)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let events_arg =
  let doc =
    "Write the solver-progress event stream (residual-demand trajectory, \
     MILP incumbents/bounds, simplex objective) to $(docv) as JSON Lines, \
     one event per line with its fields inlined — the input of the \
     recovery-curve plot in scripts/plot_results.gp."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

let verbose_arg =
  let doc =
    "Print the full span/counter/gauge/histogram summary tables after the \
     run."
  in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

(* Counters worth a one-line footer even without --verbose: the solver
   effort measures the paper reports next to wall time. *)
let work_counters =
  [ "isp.iterations"; "simplex.pivots"; "simplex.dse_pivots";
    "simplex.solves"; "simplex.warm_starts"; "simplex.cold_solves";
    "simplex.cold_pivots"; "simplex.refactors"; "milp.nodes";
    "milp.nodes_pruned"; "presolve.runs"; "presolve.vars_fixed";
    "cuts.separated"; "cuts.added"; "dijkstra.calls"; "bidir.calls";
    "bidir.scanned"; "maxflow.calls"; "maxflow.augmentations";
    "bubble.finds"; "bubble.labels" ]

let print_work_footer () =
  let parts =
    List.filter_map
      (fun k ->
        match Obs.counter_value k with
        | 0 -> None
        | v -> Some (Printf.sprintf "%s=%d" k v))
      work_counters
  in
  if parts <> [] then Printf.printf "work: %s\n" (String.concat "  " parts);
  (* Process-wide allocation totals for the run (commands solve once and
     exit, so totals ≈ the solve).  Per-span attribution is in the
     --verbose tables and the --metrics export. *)
  let g = Obs.gc_snapshot () in
  Printf.printf
    "gc: %.1f Mw minor  %.1f Mw major  %d minor / %d major collection(s)  \
     %d compaction(s)\n"
    (g.Obs.minor_words /. 1e6)
    (g.Obs.major_words /. 1e6)
    g.Obs.minor_collections g.Obs.major_collections g.Obs.gc_compactions

let export_observability ~verbose ~trace_file ~metrics_file ~events_file =
  if verbose then begin
    print_newline ();
    Obs.print_summary ()
  end;
  (match metrics_file with
  | Some path ->
    Obs.write_jsonl path;
    Printf.printf "wrote %s\n" path
  | None -> ());
  (match events_file with
  | Some path ->
    Obs.write_events path;
    Printf.printf "wrote %s\n" path
  | None -> ());
  match trace_file with
  | Some path ->
    Obs.write_chrome_trace path;
    Printf.printf "wrote %s\n" path
  | None -> ()

(* Every command that solves records telemetry; span intervals are kept
   only when a Chrome trace will be written, so a long-running daemon
   does not accumulate one per span it ever ran. *)
let start_collector ~trace_file =
  Obs.set_enabled true;
  Obs.set_intervals (Option.is_some trace_file)

let build_topology name ~er_p ~seed =
  match name with
  | "bell-canada" -> Netrec_topo.Bell_canada.graph ()
  | "abilene" -> Netrec_topo.Abilene.graph ()
  | "caida" -> Netrec_topo.Caida.graph ()
  | "er" ->
    Netrec_graph.Generate.erdos_renyi ~rng:(Rng.create seed) ~n:100 ~p:er_p
      ~capacity:1000.0
  | "grid" -> Netrec_graph.Generate.grid ~width:8 ~height:6 ~capacity:20.0
  | "ring" -> Netrec_graph.Generate.ring ~n:24 ~capacity:20.0
  | other when String.length other > 6 && String.sub other 0 6 = "synth:" -> (
    let spec = String.sub other 6 (String.length other - 6) in
    match Netrec_topo.Synth.of_string spec with
    | Ok g -> g
    | Error msg -> failwith (Printf.sprintf "--topology synth: %s" msg))
  | other -> failwith (Printf.sprintf "unknown topology %S" other)

let build_failure name ~variance ~fail_p ~rng g =
  match name with
  | "complete" -> Failure.complete g
  | "gaussian" ->
    if not (G.has_coords g) then
      failwith "gaussian disruption needs an embedded topology";
    Models.gaussian ~rng ~variance g
  | "uniform" -> Models.uniform ~rng ~p_vertex:fail_p ~p_edge:fail_p g
  | other -> failwith (Printf.sprintf "unknown disruption %S" other)

(* ---- plan command ---- *)

let describe_solution g inst name sol seconds ~footer =
  let report = Evaluate.assess inst sol in
  Printf.printf "== %s ==\n" name;
  Printf.printf "repairs: %d nodes + %d edges = %d (cost %.1f)\n"
    report.Evaluate.vertex_repairs report.Evaluate.edge_repairs
    report.Evaluate.total_repairs report.Evaluate.repair_cost;
  Printf.printf "satisfied demand: %.1f%%   runtime: %.3f s\n"
    (100.0 *. report.Evaluate.satisfied_fraction)
    seconds;
  List.iter print_endline footer;
  if sol.Instance.repaired_vertices <> [] then begin
    let names = List.map (G.name g) sol.Instance.repaired_vertices in
    Printf.printf "repair nodes: %s\n" (String.concat ", " names)
  end;
  if sol.Instance.repaired_edges <> [] then begin
    let edge_name e =
      let u, v = G.endpoints g e in
      Printf.sprintf "%s-%s" (G.name g u) (G.name g v)
    in
    Printf.printf "repair links: %s\n"
      (String.concat ", " (List.map edge_name sol.Instance.repaired_edges))
  end;
  print_newline ()

(* Each algorithm returns its solution plus footer lines surfacing the
   solver-internal work counters of its run report. *)
let limited_note = function
  | None -> []
  | Some r -> [ "budget: degraded (" ^ Budget.reason_to_string r ^ ")" ]

let isp_entry ~budget inst () =
  let sol, st = Isp.solve ~budget inst in
  ( sol,
    Printf.sprintf
      "isp: %d iterations, %d splits, %d prunes, %d direct edge repairs, \
       %d endpoint repairs, %d fallback paths"
      st.Isp.iterations st.Isp.splits st.Isp.prunes
      st.Isp.direct_edge_repairs st.Isp.endpoint_repairs st.Isp.fallback_paths
    :: limited_note st.Isp.limited )

let opt_entry ~budget inst () =
  let r = H.Opt.solve ~budget inst in
  ( r.H.Opt.solution,
    Printf.sprintf "opt: %d b&b nodes explored, objective %.1f (%s)"
      r.H.Opt.nodes r.H.Opt.objective
      (if r.H.Opt.proved then "proved optimal" else "bound not proved")
    :: limited_note r.H.Opt.limited )

let fallback_entry ~budget inst () =
  match H.Fallback.solve ~budget inst with
  | Some outcome -> (outcome.Chain.value, Chain.describe outcome)
  | None -> failwith "fallback chain produced no answer"

(* The sharded solver certifies internally and is deadline-free (its
   per-shard work is already bounded by the disaster region). *)
let shard_entry inst () =
  let module Shard = Netrec_shard.Shard in
  let sol, st = Shard.solve inst in
  ( sol,
    [ (if st.Shard.delegated then
         Printf.sprintf
           "shard: region %d vertices covers the graph, delegated to plain \
            ISP"
           st.Shard.region_vertices
       else
         Printf.sprintf
           "shard: %d shard(s) over a %d-vertex region, %d cut demand(s), \
            %d fixup path(s)"
           st.Shard.shards st.Shard.region_vertices st.Shard.cut_demands
           st.Shard.fixup_paths);
      Printf.sprintf "shard: stitched solution %s"
        (if Check.ok st.Shard.certificate then "certified"
         else
           Printf.sprintf "has %d violation(s)"
             (List.length st.Shard.certificate.Check.violations)) ] )

let plain sol = (sol, [])

let run_algorithm ~budget inst = function
  | "isp" -> [ ("ISP", isp_entry ~budget inst) ]
  | "shard" -> [ ("SHARD", shard_entry inst) ]
  | "srt" -> [ ("SRT", fun () -> plain (H.Srt.solve inst)) ]
  | "grd-com" -> [ ("GRD-COM", fun () -> plain (H.Greedy.grd_com inst)) ]
  | "grd-nc" -> [ ("GRD-NC", fun () -> plain (H.Greedy.grd_nc inst)) ]
  | "steiner" -> [ ("Steiner", fun () -> plain (H.Steiner.recovery inst)) ]
  | "opt" -> [ ("OPT", opt_entry ~budget inst) ]
  | "fallback" -> [ ("FALLBACK", fallback_entry ~budget inst) ]
  | "all" ->
    [ ("ISP", isp_entry ~budget inst);
      ("SRT", fun () -> plain (H.Srt.solve inst));
      ("GRD-COM", fun () -> plain (H.Greedy.grd_com inst));
      ("GRD-NC", fun () -> plain (H.Greedy.grd_nc inst));
      ("OPT", opt_entry ~budget inst) ]
  | other -> failwith (Printf.sprintf "unknown algorithm %S" other)

let dot_arg =
  let doc = "Write a Graphviz rendering of the (last) solution to $(docv)." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let save_arg =
  let doc = "Save the generated instance to $(docv) (Serialize format)." in
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)

let load_arg =
  let doc =
    "Load the instance from $(docv) instead of generating one (overrides \
     the topology/demand/disruption options)."
  in
  Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE" ~doc)

let save_solution_arg =
  let doc =
    "Save the (last) computed solution to $(docv) (Serialize solution \
     format, including its repair cost) for later $(b,recover verify)."
  in
  Arg.(
    value & opt (some string) None & info [ "save-solution" ] ~docv:"FILE" ~doc)

let plan topology er_p seed pairs amount algorithm disruption variance fail_p
    deadline certify dot_file save_file load_file save_solution_file
    trace_file metrics_file events_file verbose =
  try
    start_collector ~trace_file;
    let inst =
      match load_file with
      | Some path -> Netrec_core.Serialize.load path
      | None ->
        let g = build_topology topology ~er_p ~seed in
        let rng = Rng.create seed in
        let demands = E.Common.feasible_demands ~rng ~count:pairs ~amount g in
        let failure = build_failure disruption ~variance ~fail_p ~rng g in
        Instance.make ~graph:g ~demands ~failure ()
    in
    let g = inst.Instance.graph in
    let demands = inst.Instance.demands in
    let failure = inst.Instance.failure in
    (match save_file with
    | Some path -> Netrec_core.Serialize.save path inst
    | None -> ());
    let bv, be = Failure.counts failure in
    let loaded label = if load_file <> None then "(loaded)" else label in
    Printf.printf "topology %s: %s\n" (loaded topology)
      (Netrec_graph.Metrics.summary g);
    Printf.printf "disruption %s: %d nodes + %d edges broken\n"
      (loaded disruption) bv be;
    List.iter
      (fun d ->
        Printf.printf "demand: %s -> %s (%g units)\n"
          (G.name g d.Commodity.src) (G.name g d.Commodity.dst)
          d.Commodity.amount)
      demands;
    print_newline ();
    (* The deadline clock starts here — instance generation and printing
       above are not the solvers' problem. *)
    let budget =
      match deadline with
      | Some d -> Budget.create ~deadline_s:d ()
      | None -> Budget.unlimited
    in
    let last = ref None in
    let violations = ref 0 in
    List.iter
      (fun (name, algo) ->
        let (sol, footer), seconds =
          Obs.timed ("plan." ^ String.lowercase_ascii name) algo
        in
        last := Some sol;
        describe_solution g inst name sol seconds ~footer;
        if certify then begin
          let cert =
            Check.certify ~reported_cost:(Instance.repair_cost inst sol) inst
              sol
          in
          violations := !violations + List.length cert.Check.violations;
          print_endline (Check.certificate_to_string cert);
          print_newline ()
        end)
      (run_algorithm ~budget inst algorithm);
    print_work_footer ();
    export_observability ~verbose ~trace_file ~metrics_file ~events_file;
    (match (save_solution_file, !last) with
    | Some path, Some sol ->
      Netrec_core.Serialize.save_solution
        ~cost:(Instance.repair_cost inst sol) path sol;
      Printf.printf "wrote %s\n" path
    | Some _, None -> ()
    | None, _ -> ());
    (match (dot_file, !last) with
    | Some path, Some sol ->
      let oc = open_out path in
      output_string oc (Netrec_core.Render.solution_dot inst sol);
      close_out oc;
      Printf.printf "wrote %s\n" path
    | Some path, None ->
      let oc = open_out path in
      output_string oc (Netrec_core.Render.instance_dot inst);
      close_out oc;
      Printf.printf "wrote %s\n" path
    | None, _ -> ());
    if !violations > 0 then 1 else 0
  with
  | Failure msg | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | Netrec_core.Serialize.Parse_error { line; msg } ->
    Printf.eprintf "error: line %d: %s\n" line msg;
    1

let plan_cmd =
  let doc = "compute a repair plan for a disrupted network" in
  Cmd.v
    (Cmd.info "plan" ~doc)
    Term.(
      const (fun () -> plan) $ tuning_term $ topology_arg $ er_p_arg
      $ seed_arg $ pairs_arg
      $ amount_arg $ algorithm_arg $ disruption_arg $ variance_arg
      $ fail_p_arg $ deadline_arg $ certify_arg $ dot_arg
      $ save_arg $ load_arg $ save_solution_arg $ trace_arg $ metrics_arg
      $ events_arg $ verbose_arg)

(* ---- experiment command ---- *)

let runs_arg =
  let doc =
    "Runs (seeds) averaged per data point (at least 1; fig9-xl runs at \
     most 2)."
  in
  Arg.(value & opt int E.Figures.default.runs & info [ "runs" ] ~doc)

let opt_nodes_arg =
  let doc =
    "Branch-and-bound node budget of the OPT column of fig3-fig6 (fig-opt \
     and ablation keep their fixed 600 and 200)."
  in
  Arg.(value & opt int E.Figures.default.opt_nodes & info [ "opt-nodes" ] ~doc)

let figure_arg =
  let doc =
    Printf.sprintf "Figure to regenerate: %s, or all (every figure, in \
       that order)."
      (String.concat ", " E.Figures.names)
  in
  Arg.(value & pos 0 string "all" & info [] ~docv:"FIGURE" ~doc)

let journal_file_arg =
  let doc =
    "Record every per-(point, run) measurement in $(docv) as it completes \
     (append-only JSONL).  Re-running with the same file resumes an \
     interrupted sweep, replaying recorded cells instead of recomputing \
     them — see EXPERIMENTS.md."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Evaluate experiment cells on $(docv) parallel domains.  Tables and \
     journal bytes are identical for every value (cells are journalled \
     in deterministic order); 0 means the runtime's recommended domain \
     count."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let experiment figure runs opt_nodes jobs certify journal_file trace_file
    metrics_file events_file verbose =
  if runs < 1 then begin
    Printf.eprintf "error: --runs must be >= 1\n";
    2
  end
  else if figure <> "all" && not (List.mem figure E.Figures.names) then begin
    Printf.eprintf "error: unknown figure %S (figures: %s, or all)\n" figure
      (String.concat " " E.Figures.names);
    2
  end
  else begin
    start_collector ~trace_file;
    if certify then Check.install_certifier ();
    (* SIGINT/SIGTERM stop the sweep at the next cell boundary: completed
       cells are already in the journal, so the same --journal file
       resumes exactly there.  The handler only sets a flag. *)
    E.Common.reset_stop ();
    let install sgn =
      try Some (Sys.signal sgn (Sys.Signal_handle (fun _ -> E.Common.request_stop ())))
      with Invalid_argument _ | Sys_error _ -> None
    in
    let restore sgn = function
      | Some prev -> (try Sys.set_signal sgn prev with Invalid_argument _ | Sys_error _ -> ())
      | None -> ()
    in
    let prev_int = install Sys.sigint in
    let prev_term = install Sys.sigterm in
    Fun.protect
      ~finally:(fun () ->
        restore Sys.sigint prev_int;
        restore Sys.sigterm prev_term)
    @@ fun () ->
    let pool =
      E.Common.Pool.create
        ~jobs:(if jobs <= 0 then E.Common.Pool.default_jobs () else jobs)
    in
    let settings = { E.Figures.runs; opt_nodes } in
    try
      let journal = Option.map (E.Journal.create ~opt_nodes) journal_file in
      Fun.protect
        ~finally:(fun () -> Option.iter E.Journal.close journal)
        (fun () ->
          List.iter
            (fun name ->
              Obs.span ("experiment." ^ name) (fun () ->
                  E.Figures.run ?journal ~pool settings name)
              |> List.iter Netrec_util.Table.print)
            (if figure = "all" then E.Figures.names else [ figure ]));
      print_work_footer ();
      export_observability ~verbose ~trace_file ~metrics_file ~events_file;
      if certify then begin
        let certified = Obs.counter_value "check.certified" in
        let violations = Obs.counter_value "check.violations" in
        Printf.printf "certified %d solutions, %d violation(s)\n" certified
          violations;
        if violations > 0 then 1 else 0
      end
      else 0
    with
    | E.Common.Interrupted ->
      print_work_footer ();
      export_observability ~verbose ~trace_file ~metrics_file ~events_file;
      Printf.printf "interrupted: stopped at a cell boundary%s\n"
        (match journal_file with
        | Some f ->
          Printf.sprintf "; completed cells are in %s — rerun to resume" f
        | None -> " (use --journal to make interrupted sweeps resumable)");
      0
    | Failure msg | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  end

let experiment_cmd =
  let doc = "regenerate the paper's evaluation tables" in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(
      const (fun () -> experiment) $ tuning_term $ figure_arg $ runs_arg
      $ opt_nodes_arg $ jobs_arg
      $ certify_arg $ journal_file_arg $ trace_arg $ metrics_arg
      $ events_arg $ verbose_arg)

(* ---- schedule command ---- *)

let per_round_arg =
  let doc =
    "Crews available per recovery round: chunk the schedule into rounds of \
     at most $(docv) repairs and report the per-round recovery curve."
  in
  Arg.(value & opt int 1 & info [ "per-round" ] ~docv:"N" ~doc)

let round_budget_arg =
  let doc =
    "Repair-cost budget per round (an element more expensive than the \
     whole budget still ships alone)."
  in
  Arg.(value & opt (some float) None & info [ "round-budget" ] ~docv:"COST" ~doc)

let local_search_arg =
  let doc =
    "Refine the greedy order with swap/insert local search over whole-plan \
     AUC before reporting."
  in
  Arg.(value & flag & info [ "local-search" ] ~doc)

let oracle_arg =
  let doc =
    "Also solve the exact MILP round-assignment oracle and report the \
     schedule's regret against the proved optimum (small instances only)."
  in
  Arg.(value & flag & info [ "oracle" ] ~doc)

let element_name g = function
  | `Vertex v -> Printf.sprintf "node %s" (G.name g v)
  | `Edge e ->
    let u, v = G.endpoints g e in
    Printf.sprintf "link %s-%s" (G.name g u) (G.name g v)

let schedule topology er_p seed pairs amount disruption variance fail_p
    per_round round_budget local_search oracle certify =
  let module Sched = Netrec_sched.Sched in
  if per_round < 1 then begin
    Printf.eprintf "error: --per-round must be >= 1\n";
    2
  end
  else
    try
      let g = build_topology topology ~er_p ~seed in
      let rng = Rng.create seed in
      let demands = E.Common.feasible_demands ~rng ~count:pairs ~amount g in
      let failure = build_failure disruption ~variance ~fail_p ~rng g in
      let inst = Instance.make ~graph:g ~demands ~failure () in
      let cap = Sched.capacity ?round_budget ~crews:per_round () in
      let sol, _ = Netrec_core.Isp.solve inst in
      Printf.printf
        "ISP plan: %d repairs; %d crew(s) per round%s; per-round recovery:\n"
        (Instance.total_repairs sol) per_round
        (match round_budget with
        | Some b -> Printf.sprintf ", round budget %g" b
        | None -> "");
      let plan = Sched.greedy ~cap inst sol in
      let plan =
        if not local_search then plan
        else begin
          let refined, stats =
            Sched.local_search ~cap inst (Sched.order_of plan)
          in
          Printf.printf
            "local search: %d pass(es), %d/%d improving move(s) applied, \
             %d prefix evaluation(s), %d from the memo\n"
            stats.Sched.passes stats.Sched.moves_applied stats.Sched.moves_tried
            stats.Sched.prefix_evals stats.Sched.memo_hits;
          refined
        end
      in
      List.iteri
        (fun i r ->
          Printf.printf "  round %2d (cost %5.1f): %-44s -> %5.1f%% served\n"
            (i + 1) r.Sched.cost
            (String.concat ", " (List.map (element_name g) r.Sched.elements))
            (100.0 *. r.Sched.satisfied))
        plan.Sched.rounds;
      Printf.printf "area under the recovery curve: %.3f (baseline %.3f)\n"
        plan.Sched.auc plan.Sched.baseline;
      let oracle_ok =
        (not oracle)
        ||
        match Sched.oracle ~cap inst (Sched.order_of plan) with
        | Ok r ->
          Printf.printf "oracle: AUC %.3f (%s, %d nodes); regret %.1f%%\n"
            r.Sched.plan.Sched.auc
            (if r.Sched.proved then "proved optimal" else "incumbent only")
            r.Sched.nodes
            (100.0 *. Sched.regret ~oracle:r.Sched.plan plan);
          true
        | Error (Sched.Too_big { vars; cap }) ->
          Printf.eprintf "oracle: refused, model too big (%d vars > %d cap)\n"
            vars cap;
          false
        | Error (Sched.Malformed e) ->
          Printf.eprintf "oracle: %s\n"
            (Netrec_core.Schedule.order_error_to_string e);
          false
        | Error (Sched.No_incumbent _) ->
          Printf.eprintf "oracle: no incumbent found within budget\n";
          false
      in
      (* The ISP plan itself is certified (cost included) before its round
         prefixes, so a schedule cannot hide a bad plan. *)
      let certify_ok =
        (not certify)
        ||
        let cert =
          Check.certify ~reported_cost:(Instance.repair_cost inst sol) inst sol
        in
        Printf.printf "certification: ISP plan %s\n"
          (if Check.ok cert then "clean" else "violations");
        let certs = Sched.certify_rounds inst plan in
        let bad = List.filter (fun c -> not (Check.ok c)) certs in
        Printf.printf "certification: %d/%d round prefixes clean\n"
          (List.length certs - List.length bad)
          (List.length certs);
        Check.ok cert && bad = []
      in
      if oracle_ok && certify_ok then 0 else 1
    with Failure msg | Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      1

let schedule_cmd =
  let doc = "order a repair plan for fastest service recovery" in
  Cmd.v
    (Cmd.info "schedule" ~doc)
    Term.(
      const schedule $ topology_arg $ er_p_arg $ seed_arg $ pairs_arg
      $ amount_arg $ disruption_arg $ variance_arg $ fail_p_arg
      $ per_round_arg $ round_budget_arg $ local_search_arg $ oracle_arg
      $ certify_arg)

(* ---- verify command ---- *)

let instance_file_arg =
  let doc = "Instance file (Serialize format, e.g. from recover plan --save)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INSTANCE" ~doc)

let solution_file_arg =
  let doc =
    "Solution file (Serialize solution format, e.g. from recover plan \
     --save-solution)."
  in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"SOLUTION" ~doc)

let verify instance_file solution_file =
  try
    let inst = Netrec_core.Serialize.load instance_file in
    let sol, reported_cost =
      Netrec_core.Serialize.load_solution solution_file
    in
    let cert = Check.certify ?reported_cost inst sol in
    print_endline (Check.certificate_to_string cert);
    if Check.ok cert then 0 else 1
  with
  | Failure msg | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | Netrec_core.Serialize.Parse_error { line; msg } ->
    Printf.eprintf "error: line %d: %s\n" line msg;
    1

let verify_cmd =
  let doc = "certify a saved solution against its instance" in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(const verify $ instance_file_arg $ solution_file_arg)

(* ---- check command (cross-solver differential) ---- *)

let check_instances_arg =
  let doc = "Number of seeded random instances to generate." in
  Arg.(value & opt int 200 & info [ "instances"; "n" ] ~doc)

let check_node_budget_arg =
  let doc = "Branch-and-bound node budget for the OPT column." in
  Arg.(value & opt int 400 & info [ "opt-nodes" ] ~doc)

let check seed instances opt_nodes jobs =
  let pool =
    if jobs = 1 then None
    else
      Some
        (E.Common.Pool.create
           ~jobs:(if jobs <= 0 then E.Common.Pool.default_jobs () else jobs))
  in
  let r = Check.differential ~seed ~instances ~opt_nodes ?pool () in
  print_endline (Check.report_to_string r);
  if r.Check.issues = [] then 0 else 1

let check_cmd =
  let doc =
    "differential-test every solver on seeded random instances: certify \
     each solution, assert the paper's cost orderings against OPT, and \
     (with --jobs > 1) cross-check -j determinism"
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const (fun () -> check) $ tuning_term $ seed_arg
      $ check_instances_arg $ check_node_budget_arg
      $ jobs_arg)

(* ---- metrics command (regression diff of two run records) ---- *)

module Metrics_diff = Netrec_obs.Metrics_diff

let diff_base_arg =
  let doc = "Baseline metrics file (e.g. the committed BENCH_metrics.json)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE" ~doc)

let diff_current_arg =
  let doc = "Current metrics file to compare against the baseline." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"CURRENT" ~doc)

let metrics_diff base current =
  let r = Metrics_diff.diff_files ~base ~current in
  print_string (Metrics_diff.report_to_string r);
  if r.Metrics_diff.regressions = [] then 0 else 1

let metrics_diff_cmd =
  let doc =
    "compare two BENCH_metrics.json run records and fail on regressions"
  in
  let man =
    [ `S Manpage.s_description;
      `P
        "Compares deterministic numbers only: the lp/xl/sched/work gate \
         blocks (10% drift either way fails, hard invariants such as \
         $(b,opt.proved) = 1, no key may vanish) and — when both records \
         were produced by the same bench mode — work-histogram quantiles \
         (10% p50/p90/p99 drift either way fails) and counters (notes \
         only).  Wall-clock ($(b,_ms)) histograms are printed, never \
         gated.  Exits 0 when no section regressed, 1 otherwise." ]
  in
  Cmd.v
    (Cmd.info "diff" ~doc ~man)
    Term.(
      const metrics_diff $ diff_base_arg $ diff_current_arg)

let validate_file_arg =
  let doc = "Metrics file to validate (e.g. the committed BENCH_metrics.json)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let metrics_validate file =
  let r = Metrics_diff.validate_file file in
  print_string (Metrics_diff.report_to_string r);
  if r.Metrics_diff.regressions = [] then 0 else 1

let metrics_validate_cmd =
  let doc = "check one BENCH_metrics.json run record against the gate table" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Checks the schema tag, every gate block's hard invariants and \
         required keys, and the run-wide counters, gauges, histograms and \
         progress summary.  Each failure names its key.  Exits 0 when the \
         record is valid, 1 otherwise (including an unreadable or \
         malformed file)." ]
  in
  Cmd.v
    (Cmd.info "validate" ~doc ~man)
    Term.(const metrics_validate $ validate_file_arg)

let metrics_cmd =
  let doc = "inspect and compare recorded metrics" in
  Cmd.group (Cmd.info "metrics" ~doc) [ metrics_diff_cmd; metrics_validate_cmd ]

(* ---- serve / query commands ---- *)

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(
    value
    & opt string "/tmp/netrec-recover.sock"
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Listen on (or connect to) TCP $(docv) instead of --socket." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let parse_address ~socket ~tcp =
  match tcp with
  | None -> Server.Unix_socket socket
  | Some spec -> (
    match String.rindex_opt spec ':' with
    | None ->
      failwith (Printf.sprintf "--tcp: expected HOST:PORT, got %S" spec)
    | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
        Server.Tcp ((if host = "" then "127.0.0.1" else host), p)
      | _ -> failwith (Printf.sprintf "--tcp: bad port %S" port)))

let serve_jobs_arg =
  let doc = "Worker domains solving queries." in
  Arg.(value & opt int 2 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let queue_cap_arg =
  let doc =
    "Admission control: maximum queued queries before requests are \
     rejected with a structured $(i,overloaded) error."
  in
  Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N" ~doc)

let default_deadline_arg =
  let doc =
    "Deadline applied to queries that do not carry their own (seconds)."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "default-deadline" ] ~docv:"SECONDS" ~doc)

let cache_cap_arg =
  let doc = "Plan-cache capacity (entries, FIFO eviction)." in
  Arg.(value & opt int 256 & info [ "cache-cap" ] ~docv:"N" ~doc)

let inject_arg =
  let doc =
    "Fault injection knobs, e.g. \
     $(i,fail=0.25,fail_first=40,slow_ms=30,slow_rate=0.5,seed=7).  \
     Defaults to the NETREC_INJECT environment variable."
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC" ~doc)

let breaker_window_arg =
  let doc = "Breaker sliding-window size (outcomes)." in
  Arg.(
    value
    & opt int Breaker.default_config.Breaker.window
    & info [ "breaker-window" ] ~docv:"N" ~doc)

let breaker_min_samples_arg =
  let doc = "Windowed outcomes required before the failure rate can trip." in
  Arg.(
    value
    & opt int Breaker.default_config.Breaker.min_samples
    & info [ "breaker-min-samples" ] ~docv:"N" ~doc)

let breaker_rate_arg =
  let doc = "Windowed failure fraction in [0,1] that opens the breaker." in
  Arg.(
    value
    & opt float Breaker.default_config.Breaker.failure_rate
    & info [ "breaker-failure-rate" ] ~docv:"RATE" ~doc)

let breaker_cooldown_arg =
  let doc = "Seconds spent open before half-open probing starts." in
  Arg.(
    value
    & opt float Breaker.default_config.Breaker.cooldown_s
    & info [ "breaker-cooldown" ] ~docv:"SECONDS" ~doc)

let serve_run topology er_p seed socket tcp jobs queue_cap default_deadline
    cache_cap inject_spec breaker_window breaker_min_samples breaker_rate
    breaker_cooldown trace_file metrics_file events_file verbose =
  try
    start_collector ~trace_file;
    let g = build_topology topology ~er_p ~seed in
    let address = parse_address ~socket ~tcp in
    let inject =
      match
        match inject_spec with
        | Some spec -> Inject.parse spec
        | None -> Inject.of_env ()
      with
      | Ok t -> t
      | Error msg -> failwith msg
    in
    let cfg =
      { (Server.default_config address) with
        Server.jobs;
        queue_cap;
        default_deadline_s = default_deadline;
        cache_cap;
        inject;
        breaker =
          { Breaker.default_config with
            Breaker.window = breaker_window;
            min_samples = breaker_min_samples;
            failure_rate = breaker_rate;
            cooldown_s = breaker_cooldown } }
    in
    Printf.printf "topology %s: %s\n%!" topology
      (Netrec_graph.Metrics.summary g);
    Server.serve cfg g;
    print_work_footer ();
    export_observability ~verbose ~trace_file ~metrics_file ~events_file;
    0
  with
  | Failure msg | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "error: %s %s: %s\n" fn arg (Unix.error_message e);
    1

let serve_cmd =
  let doc = "run the recovery daemon (recovery-as-a-service)" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Loads the topology once and answers concurrent recovery queries \
         over a framed socket protocol: each query carries broken \
         vertex/edge sets, demand pairs and options, and receives either \
         a repair plan or a structured error (overloaded, deadline, \
         malformed, solver_failure, shutting_down).  A circuit breaker \
         sheds load to the cheap SRT tier while the solver tier is \
         unhealthy; complete plans are cached under a canonical \
         instance hash.  SIGINT/SIGTERM drain in-flight requests and \
         exit cleanly." ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const serve_run $ topology_arg $ er_p_arg $ seed_arg $ socket_arg
      $ tcp_arg $ serve_jobs_arg $ queue_cap_arg $ default_deadline_arg
      $ cache_cap_arg $ inject_arg $ breaker_window_arg
      $ breaker_min_samples_arg $ breaker_rate_arg $ breaker_cooldown_arg
      $ trace_arg $ metrics_arg $ events_arg $ verbose_arg)

(* -- query -- *)

let demand_arg =
  let doc =
    "Demand pair as $(i,SRC:DST:AMOUNT) (vertex ids on the daemon's \
     topology).  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "demand" ] ~docv:"SRC:DST:AMOUNT" ~doc)

let broken_vertices_arg =
  let doc = "Comma-separated broken vertex ids." in
  Arg.(value & opt string "" & info [ "broken-vertices" ] ~docv:"IDS" ~doc)

let broken_edges_arg =
  let doc = "Comma-separated broken edge ids." in
  Arg.(value & opt string "" & info [ "broken-edges" ] ~docv:"IDS" ~doc)

let no_cache_arg =
  let doc = "Bypass the daemon's plan cache for this query." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let ping_flag_arg =
  let doc = "Send a ping instead of a query." in
  Arg.(value & flag & info [ "ping" ] ~doc)

let stats_flag_arg =
  let doc = "Fetch the daemon's serve.* counters instead of querying." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let raw_arg =
  let doc =
    "Print the response in the canonical wire text (stable across \
     identical answers — what scripts/check_serve.sh compares)."
  in
  Arg.(value & flag & info [ "raw" ] ~doc)

let parse_ids what s =
  String.split_on_char ',' (String.trim s)
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (( <> ) "")
  |> List.map (fun tok ->
         match int_of_string_opt tok with
         | Some v when v >= 0 -> v
         | _ -> failwith (Printf.sprintf "%s: bad id %S" what tok))

let parse_demand spec =
  match String.split_on_char ':' spec with
  | [ s; d; a ] -> (
    match (int_of_string_opt s, int_of_string_opt d, float_of_string_opt a) with
    | Some s, Some d, Some a when s >= 0 && d >= 0 && a > 0.0 -> (s, d, a)
    | _ -> failwith (Printf.sprintf "--demand: bad spec %S" spec))
  | _ ->
    failwith (Printf.sprintf "--demand: expected SRC:DST:AMOUNT, got %S" spec)

let print_reply ~raw (r : Protocol.reply) =
  if raw then print_string (Protocol.encode_response (Protocol.Ok_plan r))
  else begin
    Printf.printf "answered by %s%s%s  (%.3f s)\n" r.Protocol.answered_by
      (if r.Protocol.cached then " [cached]" else "")
      (if r.Protocol.shed then " [shed]" else "")
      r.Protocol.seconds;
    if not r.Protocol.complete then
      print_endline "plan is budget-degraded (best-so-far)";
    let sol = r.Protocol.solution in
    Printf.printf "repairs: %d nodes + %d edges  (cost %.1f)\n"
      (List.length sol.Instance.repaired_vertices)
      (List.length sol.Instance.repaired_edges)
      r.Protocol.cost
  end

let query_run socket tcp algorithm deadline no_cache demands broken_vertices
    broken_edges ping stats raw =
  try
    let address = parse_address ~socket ~tcp in
    let outcome =
      Client.with_connection address @@ fun c ->
      if ping then
        Result.map (fun () -> Protocol.Pong) (Client.ping c)
      else if stats then
        Result.map (fun kvs -> Protocol.Stats_reply kvs) (Client.stats c)
      else begin
        let algorithm =
          match Protocol.algorithm_of_string algorithm with
          | Ok a -> a
          | Error msg -> failwith msg
        in
        let q =
          { Protocol.algorithm;
            deadline_s = deadline;
            no_cache;
            demands = List.map parse_demand demands;
            broken_vertices = parse_ids "--broken-vertices" broken_vertices;
            broken_edges = parse_ids "--broken-edges" broken_edges }
        in
        Client.query c q
      end
    in
    match outcome with
    | Error e ->
      Printf.eprintf "error: %s\n" (Client.error_to_string e);
      1
    | Ok (Protocol.Ok_plan r) ->
      print_reply ~raw r;
      0
    | Ok Protocol.Pong ->
      print_endline "pong";
      0
    | Ok (Protocol.Stats_reply kvs) ->
      List.iter (fun (k, v) -> Printf.printf "%s %d\n" k v) kvs;
      0
    | Ok (Protocol.Error (kind, msg)) ->
      (* Structured refusal from the daemon: distinct exit code so
         harnesses can tell it from a transport failure. *)
      if raw then
        print_string
          (Protocol.encode_response (Protocol.Error (kind, msg)))
      else
        Printf.printf "daemon error %s: %s\n"
          (Protocol.error_kind_to_string kind)
          msg;
      4
  with Failure msg | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    1

let query_cmd =
  let doc = "query a running recovery daemon" in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(
      const query_run $ socket_arg $ tcp_arg $ algorithm_arg $ deadline_arg
      $ no_cache_arg $ demand_arg $ broken_vertices_arg $ broken_edges_arg
      $ ping_flag_arg $ stats_flag_arg $ raw_arg)

(* ---- topology command ---- *)

let format_arg =
  let doc = "Output format: summary, dot or edges." in
  Arg.(value & opt string "summary" & info [ "format"; "f" ] ~doc)

let topology topology er_p seed format =
  try
    let g = build_topology topology ~er_p ~seed in
    (match format with
    | "summary" -> print_endline (Netrec_graph.Metrics.summary g)
    | "dot" -> print_string (G.to_dot g)
    | "edges" -> print_string (G.to_edge_list g)
    | other -> failwith (Printf.sprintf "unknown format %S" other));
    0
  with Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    1

let topology_cmd =
  let doc = "inspect or export a topology" in
  Cmd.v
    (Cmd.info "topology" ~doc)
    Term.(const topology $ topology_arg $ er_p_arg $ seed_arg $ format_arg)

let () =
  (* NETREC_DEBUG=1 turns on the algorithm trace. *)
  if Sys.getenv_opt "NETREC_DEBUG" = Some "1" then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let doc = "network recovery after massive failures (DSN 2016)" in
  let info = Cmd.info "recover" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ plan_cmd; experiment_cmd; verify_cmd; check_cmd; schedule_cmd;
            serve_cmd; query_cmd; metrics_cmd; topology_cmd ]))
