(* The plan pipeline of `recover plan --load FILE --certify
   --save-solution OUT`: instance text to a certified, serialized plan.
   Each call is wrapped in a benchmark span and its library telemetry is
   attributed to [phase]. *)

module Instance = Netrec_core.Instance
module Serialize = Netrec_core.Serialize
module Check = Netrec_check.Check
module Spans = Perfbench.Spans

type 'a planned = {
  inst : Instance.t;
  info : 'a;  (** solver-specific result *)
  cost : float;
  text : string;  (** the serialized plan *)
}

let plan ~phase ~index ~solve text =
  let sp name f = Spans.with_span name ~index f in
  Report.attempt ();
  sp "plan" (fun () ->
      let inst = sp "serialize.parse" (fun () -> Serialize.of_string text) in
      let sol, info = sp "solve" (fun () -> Layers.around phase (fun () -> solve inst)) in
      let cost = Instance.repair_cost inst sol in
      let cert =
        sp "check.certify" (fun () -> Check.certify ~reported_cost:cost inst sol)
      in
      let text =
        sp "serialize.encode" (fun () -> Serialize.solution_to_string ~cost sol)
      in
      if not (Check.ok cert) then
        Report.fail "plan %d does not certify: %s" index
          (Check.certificate_to_string cert)
      else if cert.Check.own_satisfaction < 1.0 -. 1e-6 then
        Report.fail "plan %d is incomplete: routes %.4f of the demand" index
          cert.Check.own_satisfaction;
      { inst; info; cost; text })

(** [n] (a pass or query count at [seconds = 20]) scaled to [seconds]: every
    run of one length does the same work, whatever the machine's speed
    at the moment. *)
let scaled ~seconds n =
  max 1 (int_of_float (Float.round (seconds /. 20.0 *. float_of_int n)))

(** Time [passes] whole passes of [op k] over indices [0 .. n-1].
    Returns each call's wall seconds, the first pass's results, and the
    elapsed time. *)
let cycle ~passes ~n op =
  let times = ref [] and first = Array.make n None in
  let t0 = Report.now () in
  for pass = 1 to passes do
    for k = 0 to n - 1 do
      let r, dt = Report.timed (fun () -> op k) in
      if pass = 1 then first.(k) <- Some r;
      times := dt :: !times
    done
  done;
  (Array.of_list (List.rev !times), Array.map Option.get first, Report.now () -. t0)

(* ---- the traced pass ---- *)

module Obs = Netrec_obs.Obs

(* Work counters that must repeat exactly when one input is traced
   twice. *)
let repeat_counters =
  [ "simplex.pivots"; "milp.nodes"; "dijkstra.settled"; "isp.iterations";
    "sched.evals" ]

let counter_snapshot () = List.map Obs.counter_value repeat_counters

let counter_diff a b = List.map2 (fun x y -> y - x) a b

(** Turn tracing on or off for everything the benchmark reads: the
    library collector (reset first) and the benchmark's own spans. *)
let set_tracing on =
  if on then begin
    Obs.reset ();
    Layers.reset ();
    Spans.reset ()
  end;
  Obs.set_enabled on;
  Spans.set_enabled on

(** Run [op] over indices [0 .. n-1] traced, twice.  Each traced
    output must equal [untraced.(k)], and the work counters of every
    input must repeat exactly in the second pass.  Per-layer telemetry
    and spans come from the first pass only.  Returns its wall seconds
    and spans. *)
let traced_passes ~n ~untraced ~output op =
  let pass () =
    let work = Array.make n [] in
    let outs = Array.make n "" in
    let _, dt =
      Report.timed (fun () ->
          for k = 0 to n - 1 do
            let a = counter_snapshot () in
            outs.(k) <- output (op k);
            work.(k) <- counter_diff a (counter_snapshot ())
          done)
    in
    (work, outs, dt)
  in
  set_tracing true;
  let work1, outs1, dt = pass () in
  let spans = Spans.spans () in
  Spans.set_enabled false;
  Layers.recording := false;
  let work2, _, _ = pass () in
  Layers.recording := true;
  set_tracing false;
  for k = 0 to n - 1 do
    Report.check (String.equal outs1.(k) untraced.(k))
      "traced output %d differs from the untraced one" k;
    Report.check (work1.(k) = work2.(k))
      "work counters of input %d differ between two traced passes: %s vs %s" k
      (String.concat "," (List.map string_of_int work1.(k)))
      (String.concat "," (List.map string_of_int work2.(k)))
  done;
  (dt, spans)

(* ---- per-layer metrics read from the traced pass ---- *)

(** Share of the traced operations' time that no layer span covers: the
    gaps between the benchmark's spans, plus solver time outside every
    named phase span of the library ([solve] spans are covered only by
    the library spans inside them). *)
let unattributed_share spans =
  let is_root (s : Spans.t) = s.parent < 0 in
  let has_child = Hashtbl.create 64 in
  List.iter (fun (s : Spans.t) -> Hashtbl.replace has_child s.parent ()) spans;
  let e2e, covered =
    List.fold_left
      (fun (e2e, cov) (s : Spans.t) ->
        let d = Spans.duration s in
        ( (if is_root s then e2e +. d else e2e),
          if (not (Hashtbl.mem has_child s.id)) && s.name <> "solve" && not (is_root s)
          then cov +. d
          else cov ))
      (0.0, 0.0) spans
  in
  let lib_phases = Layers.root_total_s () -. Layers.root_self_s () in
  Layers.ratio (Float.max 0.0 (e2e -. covered -. lib_phases)) e2e

(** Every per-layer metric derivable from the library's telemetry and
    the benchmark's spans, per plan ([plans]) or per schedule
    ([schedules]).  Phase "plan" holds the plan pipeline's solver calls
    (ISP, shard, OPT), phase "sched" the schedule flow's. *)
let library_layers ~plans ~schedules spans =
  let per n x = if n = 0 then 0.0 else x /. float_of_int n in
  let per_plan x = per plans x in
  let plan = [ "plan" ] and sched = [ "sched" ] in
  let ms_self ?(phases = []) leaf = per_plan (Report.ms (Layers.self_s ~phases leaf)) in
  let cnt ?(phases = []) k = float_of_int (Layers.count ~phases k) in
  Report.set "serialize.parse_ms" (per_plan (Report.ms (Spans.total spans "serialize.parse")));
  Report.set "serialize.encode_ms" (per_plan (Report.ms (Spans.total spans "serialize.encode")));
  Report.set "check.certify_ms" (per_plan (Report.ms (Spans.total spans "check.certify")));
  Report.set "isp.prune_pass.self_ms" (ms_self "isp.prune_pass");
  Report.set "isp.split_step.self_ms" (ms_self "isp.split_step");
  Report.set "isp.oracle.self_ms" (ms_self "isp.oracle");
  Report.set "isp.iterations" (per_plan (cnt "isp.iterations"));
  Report.set "centrality.cache_hit_ratio"
    (Layers.ratio (cnt "centrality.cache_hits")
       (cnt "centrality.cache_hits" +. cnt "centrality.cache_misses"));
  Report.set "dijkstra.settled" (per_plan (cnt "dijkstra.settled"));
  Report.set "maxflow.calls" (per_plan (cnt "maxflow.calls"));
  Report.set "opt.model_build.self_ms" (ms_self ~phases:plan "opt.model_build");
  let bb_self = Layers.self_s ~phases:plan "opt.branch_and_bound" in
  Report.set "opt.branch_and_bound.self_ms" (per_plan (Report.ms bb_self));
  let pivots = cnt ~phases:plan "simplex.pivots" in
  Report.set "simplex.pivots" (per_plan pivots);
  Report.set "lp.ns_per_pivot" (Layers.ratio (bb_self *. 1e9) pivots);
  let nodes = cnt ~phases:plan "milp.nodes" in
  Report.set "milp.nodes" (per_plan nodes);
  Report.set "milp.major_words_per_node"
    (Layers.ratio (Layers.major_words ~phases:plan "opt.branch_and_bound") nodes);
  let pruned = cnt ~phases:plan "milp.nodes_pruned" in
  Report.set "milp.pruned_ratio" (Layers.ratio pruned (nodes +. pruned));
  Report.set "cuts.accept_ratio"
    (Layers.ratio (cnt ~phases:plan "cuts.added") (cnt ~phases:plan "cuts.separated"));
  Report.set "simplex.cold_confirms" (per_plan (cnt ~phases:plan "simplex.cold_confirms"));
  let lps =
    cnt ~phases:sched "mcf.feasible_solves"
    +. cnt ~phases:sched "mcf.max_scale_solves"
    +. cnt ~phases:sched "mcf.max_total_solves"
  in
  Report.set "mcf.max_total_solves" (per schedules (cnt ~phases:sched "mcf.max_total_solves"));
  Report.set "presolve.runs_per_lp" (Layers.ratio (cnt ~phases:sched "presolve.runs") lps);
  Report.set "simplex.pivots_per_lp" (Layers.ratio (cnt ~phases:sched "simplex.pivots") lps);
  Report.set "shard.final_route.self_ms" (ms_self "shard.final_route");
  Report.set "shard.segment.self_ms" (ms_self "shard.segment");
  Report.set "shard.fixup.self_ms" (ms_self "shard.fixup");
  Report.set "shard.subsolve_ms" (per_plan (Report.ms (Layers.total_s "shard.subsolve")));
  Report.set "shard.region_vertices" (per_plan (cnt "isp.shard_region_vertices"));
  Report.set "trace.unattributed_share" (unattributed_share spans)

(** Tracing cost: how much longer the traced pass took than the same
    operations untraced, in percent. *)
let set_overhead ~untraced_s ~traced_s =
  Report.set "trace.overhead_pct" (100.0 *. ((traced_s /. untraced_s) -. 1.0))

(** Write the traced pass's spans as JSON lines under [dir]. *)
let write_spans ~dir ~name spans =
  let path = Filename.concat dir (name ^ ".spans.jsonl") in
  let oc = open_out path in
  output_string oc (Spans.to_jsonl spans);
  close_out oc;
  Printf.printf "spans written to %s\n" path

(* ---- the plan workloads ---- *)

type setup = {
  texts : string array;  (** serialized instances *)
  topology_s : float;
  instances_s : float;  (** instance generation and encoding *)
}

(** Set up several times (setup time is the median), plan the first
    instance once untimed, then time [passes] passes over the instances.
    With [trace], trace the first [trace_n] instances afterwards. *)
let run_plans ~trace ~passes ~out ~name ~trace_n ~setup ~solve =
  let st, setup_s = Report.median_setup setup in
  Report.set "setup_s" setup_s;
  Report.set "setup.topology_ms" (Report.ms st.topology_s);
  Report.set "setup.instances_ms" (Report.ms st.instances_s);
  let n = Array.length st.texts in
  let op k = plan ~phase:"plan" ~index:k ~solve st.texts.(k) in
  ignore (op 0);
  let gc0 = Obs.gc_snapshot () in
  let times, first, elapsed = cycle ~passes ~n op in
  let gc = Obs.gc_delta gc0 (Obs.gc_snapshot ()) in
  let plans = Array.length times in
  Report.set "plan_p50_ms" (Report.ms (Report.median times));
  Report.set "plans_per_s" (float_of_int plans /. elapsed);
  Report.set "repair_cost_mean"
    (Report.mean (Array.map (fun p -> p.cost) first));
  Report.set "peak_rss_mb" (Report.peak_rss_mb "self");
  Report.set "gc.major_words_per_plan" (gc.Obs.major_words /. float_of_int plans);
  Option.iter
    (fun v -> Report.set "plan_p90_ms" (Report.ms v))
    (Perfbench.Stats.percentile ~p:90 times);
  Printf.printf "%s: %d plans of %d instances in %.2f s\n" name plans n elapsed;
  if trace then begin
    let m = min n trace_n in
    let untraced_s = Array.fold_left ( +. ) 0.0 (Array.sub times 0 m) in
    let traced_s, spans =
      traced_passes ~n:m
        ~untraced:(Array.map (fun p -> p.text) first)
        ~output:(fun p -> p.text)
        op
    in
    set_overhead ~untraced_s ~traced_s;
    library_layers ~plans:m ~schedules:0 spans;
    write_spans ~dir:out ~name spans
  end
