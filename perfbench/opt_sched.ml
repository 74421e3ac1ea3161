(* opt-sched-bell-canada: for seeded Gaussian disasters on Bell-Canada,
   (a) OPT to a proved optimum, certified, and (b) the `recover schedule
   --per-round K --local-search --certify` flow.  Loads the LP layer two
   ways: warm-started branch-and-bound in (a), many small cold
   presolve-plus-simplex max-flow LPs in (b).

   Every run solves the same fixed catalog of disasters, whose proved
   optima are recorded in opt_objectives.txt, so each proof is checked
   against its record; the seed sets the order.  OPT time varies over
   a factor of 30 between disasters, so runs over different seeded
   subsets spread far wider than any useful bound. *)

module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Sched = Netrec_sched.Sched
module Check = Netrec_check.Check
module Opt = Netrec_heuristics.Opt
module Spans = Perfbench.Spans

let catalog_size = 15
let crews = 3
let variance = 30.0
let pairs = 2
let amount = 10.0

(* Disasters traced in a --trace 1 run (each is traced twice). *)
let trace_n = 5

let disaster g j =
  let rng = Rng.create (1000 + j) in
  let demands =
    Netrec_experiments.Common.feasible_demands ~rng ~count:pairs ~amount g
  in
  let failure = Netrec_disrupt.Models.gaussian ~rng ~variance g in
  Instance.make ~graph:g ~demands ~failure ()

(* The catalog in the seed's order. *)
let order ~seed =
  let ids = Array.init catalog_size Fun.id in
  Rng.shuffle (Rng.create seed) ids;
  ids

let read_objectives path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let tbl = Hashtbl.create 64 in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then
             Scanf.sscanf line "%d %f" (fun j v -> Hashtbl.replace tbl j v)
         done
       with End_of_file -> ());
      tbl)

let opt_solve inst =
  let r = Opt.solve inst in
  (r.Opt.solution, r)

(* (b): the schedule flow on an already parsed instance. *)
let schedule ~index inst =
  let sp name f = Spans.with_span name ~index f in
  let cap = Sched.capacity ~crews () in
  Report.attempt ();
  sp "schedule" (fun () ->
      Layers.around "sched" (fun () ->
          let sol, _ = sp "solve" (fun () -> Netrec_core.Isp.solve inst) in
          let plan = sp "sched.greedy" (fun () -> Sched.greedy ~cap inst sol) in
          let refined, _ =
            sp "sched.local_search" (fun () ->
                Sched.local_search ~cap inst (Sched.order_of plan))
          in
          let certs =
            sp "sched.certify_rounds" (fun () -> Sched.certify_rounds inst refined)
          in
          if not (List.for_all Check.ok certs) then
            Report.fail "schedule %d: a round prefix does not certify" index;
          refined))

let record () =
  let g = Netrec_topo.Bell_canada.graph () in
  Printf.printf
    "# Proved OPT objective of each opt-sched-bell-canada catalog disaster\n\
     # (Bell-Canada, Gaussian variance %g, %d pairs of %g units).\n\
     # Regenerate: main.exe --record > perfbench/opt_objectives.txt\n"
    variance pairs amount;
  for j = 0 to catalog_size - 1 do
    let r, dt = Report.timed (fun () -> Opt.solve (disaster g j)) in
    if not r.Opt.proved then failwith (Printf.sprintf "disaster %d: not proved" j);
    Printf.printf "%d %.6f\n%!" j r.Opt.objective;
    Printf.eprintf "disaster %d: %d nodes, %.3f s\n%!" j r.Opt.nodes dt
  done

type outcome = { cost : float; auc : float; text : string }

(* Relative to the checkout root, where run.py starts the harness. *)
let objectives_file = "perfbench/opt_objectives.txt"

let run ~seed ~seconds ~trace ~out =
  let objectives = read_objectives objectives_file in
  let ids = order ~seed in
  let setup () =
    let g, topology_s = Report.timed (fun () -> Netrec_topo.Bell_canada.graph ()) in
    let texts, instances_s =
      Report.timed (fun () ->
          Array.map (fun j -> Netrec_core.Serialize.to_string (disaster g j)) ids)
    in
    { Pipeline.texts; topology_s; instances_s }
  in
  let st, setup_s = Report.median_setup setup in
  Report.set "setup_s" setup_s;
  Report.set "setup.topology_ms" (Report.ms st.Pipeline.topology_s);
  Report.set "setup.instances_ms" (Report.ms st.Pipeline.instances_s);
  let n = Array.length ids in
  let opt_times = ref [] and sched_times = ref [] in
  (* One disaster: the OPT proof (a), then the schedule (b). *)
  let op k =
    let j = ids.(k) in
    let p, dt =
      Report.timed (fun () ->
          Pipeline.plan ~phase:"plan" ~index:k ~solve:opt_solve st.Pipeline.texts.(k))
    in
    opt_times := dt :: !opt_times;
    let r = p.Pipeline.info in
    (match Hashtbl.find_opt objectives j with
    | _ when not r.Opt.proved ->
      Report.fail "disaster %d: OPT not proved (%d nodes)" j r.Opt.nodes
    | None -> Report.fail "disaster %d: no recorded objective" j
    | Some v when Float.abs (v -. r.Opt.objective) > 1e-6 ->
      Report.fail "disaster %d: proved objective %.6f, recorded %.6f" j r.Opt.objective v
    | Some _ -> ());
    let plan, dt = Report.timed (fun () -> schedule ~index:k p.Pipeline.inst) in
    sched_times := dt :: !sched_times;
    { cost = p.Pipeline.cost;
      auc = plan.Sched.auc;
      text =
        p.Pipeline.text
        ^ String.concat "," (List.map Netrec_core.Schedule.element_to_string (Sched.order_of plan)) }
  in
  ignore (op 0);
  opt_times := [];
  sched_times := [];
  let gc0 = Netrec_obs.Obs.gc_snapshot () in
  let times, first, elapsed = Pipeline.cycle ~passes:(Pipeline.scaled ~seconds 2) ~n op in
  let gc = Netrec_obs.Obs.gc_delta gc0 (Netrec_obs.Obs.gc_snapshot ()) in
  Report.set "gc.major_words_per_plan"
    (gc.Netrec_obs.Obs.major_words /. float_of_int (Array.length times));
  let opt_t = Array.of_list !opt_times and sched_t = Array.of_list !sched_times in
  Report.set "plan_p50_ms" (Report.ms (Report.median opt_t));
  Report.set "plans_per_s" (float_of_int (Array.length times) /. elapsed);
  Report.set "repair_cost_mean" (Report.mean (Array.map (fun o -> o.cost) first));
  Report.set "peak_rss_mb" (Report.peak_rss_mb "self");
  Report.set "schedule_p50_ms" (Report.ms (Report.median sched_t));
  Report.set "recovery_auc_mean" (Report.mean (Array.map (fun o -> o.auc) first));
  Printf.printf "opt-sched-bell-canada: %d disasters of %d in %.2f s\n"
    (Array.length times) n elapsed;
  if trace then begin
    let m = min n trace_n in
    let traced_s, spans =
      Pipeline.traced_passes ~n:m
        ~untraced:(Array.map (fun o -> o.text) first)
        ~output:(fun o -> o.text) op
    in
    Pipeline.set_overhead
      ~untraced_s:(Array.fold_left ( +. ) 0.0 (Array.sub times 0 m))
      ~traced_s;
    Pipeline.library_layers ~plans:m ~schedules:m spans;
    let per x = x /. float_of_int m in
    let span_ms name = per (Report.ms (Spans.total spans name)) in
    Report.set "sched.greedy_ms" (span_ms "sched.greedy");
    Report.set "sched.local_search_ms" (span_ms "sched.local_search");
    Report.set "sched.certify_rounds_ms" (span_ms "sched.certify_rounds");
    let c k = float_of_int (Layers.count ~phases:[ "sched" ] k) in
    Report.set "sched.evals" (per (c "sched.evals"));
    Report.set "sched.move_accept_ratio"
      (Layers.ratio (c "sched.moves_applied") (c "sched.moves_tried"));
    Pipeline.write_spans ~dir:out ~name:"opt-sched-bell-canada" spans
  end
