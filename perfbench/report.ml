(* Result accounting shared by the workloads: operations attempted and
   failed, the metrics of this run, and the result line. *)

let now = Unix.gettimeofday

(* End-to-end metrics, reported by every workload on every run (the
   untraced measurement).  They must match BENCHMARK.json's
   "end_to_end" list; run.py checks that. *)
let end_to_end =
  [ ("setup_s", "s"); ("plan_p50_ms", "ms"); ("plans_per_s", "1/s");
    ("repair_cost_mean", "cost"); ("peak_rss_mb", "MB") ]

(* Per-layer metrics, reported by the traced run (--trace 1), each with
   the end-to-end metric and workload it should move.  A layer a
   workload bypasses reads 0.  The last group are end-to-end numbers
   that exist on one workload only; the traced run reports them from
   its untraced timed phase. *)
let per_layer =
  let caida = "plan_p50_ms on plan-caida" and xl = "plan_p50_ms on plan-xl" in
  let opt = "plan_p50_ms on opt-sched-bell-canada" in
  let sched = "schedule_p50_ms on opt-sched-bell-canada" in
  let query = "query_p50_ms on query-bell-canada" in
  [ ("setup.topology_ms", "ms", "setup_s on plan-xl");
    ("setup.instances_ms", "ms", "setup_s on plan-caida, plan-xl");
    ("serialize.parse_ms", "ms", xl);
    ("serialize.encode_ms", "ms", "plan_p50_ms on plan workloads (small)");
    ("isp.prune_pass.self_ms", "ms", caida);
    ("isp.split_step.self_ms", "ms", caida);
    ("isp.oracle.self_ms", "ms", caida ^ ", plan-xl");
    ("isp.iterations", "count", caida);
    ("centrality.cache_hit_ratio", "ratio", caida);
    ("dijkstra.settled", "count", caida ^ ", plan-xl");
    ("maxflow.calls", "count", caida);
    ("opt.model_build.self_ms", "ms", opt);
    ("opt.branch_and_bound.self_ms", "ms", opt);
    ("simplex.pivots", "count", opt);
    ("lp.ns_per_pivot", "ns", opt);
    ("milp.nodes", "count", opt);
    ("milp.major_words_per_node", "words", opt ^ "; peak_rss_mb");
    ("milp.pruned_ratio", "ratio", opt);
    ("cuts.accept_ratio", "ratio", opt);
    ("simplex.cold_confirms", "count", opt);
    ("sched.greedy_ms", "ms", sched);
    ("sched.local_search_ms", "ms", sched);
    ("sched.certify_rounds_ms", "ms", sched);
    ("sched.evals", "count", sched);
    ("sched.move_accept_ratio", "ratio", sched ^ "; recovery_auc_mean");
    ("mcf.max_total_solves", "count", sched);
    ("presolve.runs_per_lp", "ratio", sched);
    ("simplex.pivots_per_lp", "ratio", sched);
    ("check.certify_ms", "ms", "plan_p50_ms on every workload (small)");
    ("shard.final_route.self_ms", "ms", xl);
    ("shard.segment.self_ms", "ms", xl);
    ("shard.fixup.self_ms", "ms", xl);
    ("shard.subsolve_ms", "ms", xl);
    ("shard.region_vertices", "count", xl);
    ("serve.service_p50_ms", "ms", query ^ "; plan_p50_ms");
    ("serve.service_p99_ms", "ms", "query_p99_ms on query-bell-canada");
    ("serve.transport_p50_ms", "ms", query);
    ("serve.cache_hit_ratio", "ratio", query ^ "; plans_per_s");
    ("serve.queue_peak", "count", "query_p99_ms on query-bell-canada");
    ("protocol.codec_us", "us", query);
    ("loadgen.lag_p99_ms", "ms", "none: whether the numbers measure the generator");
    ("gc.major_words_per_plan", "words", "peak_rss_mb, plan_p50_ms on plan workloads");
    ("trace.overhead_pct", "%", "none: the cost of tracing");
    ("trace.unattributed_share", "ratio", "none: time no layer span covers");
    ("plan_p90_ms", "ms", "end-to-end on plan-caida");
    ("schedule_p50_ms", "ms", "end-to-end on opt-sched-bell-canada");
    ("recovery_auc_mean", "fraction", "end-to-end on opt-sched-bell-canada");
    ("query_p50_ms", "ms", "end-to-end on query-bell-canada");
    ("query_p99_ms", "ms", "end-to-end on query-bell-canada");
    ("query_capacity_rps", "1/s", "end-to-end on query-bell-canada");
    ("fail_share", "ratio", "end-to-end, every workload") ]

let attempted = ref 0
let failed = ref 0

(* Checks that are not operations: plan identity under tracing, counter
   repeatability, recorded optima, the daemon's own health. *)
let check_failures = ref 0

let attempt () = incr attempted

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      Printf.eprintf "FAILED: %s\n%!" msg)
    fmt

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr check_failures;
        Printf.eprintf "CHECK FAILED: %s\n%!" msg
      end)
    fmt

let values : (string, float) Hashtbl.t = Hashtbl.create 64

let set name v =
  check (Float.is_finite v) "metric %s is not finite (%f)" name v;
  Hashtbl.replace values name (if Float.is_finite v then v else 0.0)

let ms s = s *. 1000.0
let median a = Netrec_util.Stats.median (Array.to_list a)
let mean a = Netrec_util.Stats.mean (Array.to_list a)

(** [timed f] is [f ()] and its wall seconds.  Not [Obs.timed]: that
    would record a span, nesting the library's own spans under the
    benchmark's during a traced pass. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** The last of the runs of [f] and the median of their wall times: at
    least three runs, and more, up to 300, until they add up to two
    seconds.  A set-up of a few milliseconds is then timed over as long a
    stretch as the others: the machine's speed wanders over fractions of
    a second, and the median of half a second of set-ups moved by a
    third between runs. *)
let median_setup f =
  let times = ref [] and last = ref None in
  while
    List.length !times < 3
    || (List.fold_left ( +. ) 0.0 !times < 2.0 && List.length !times < 300)
  do
    let r, t = timed f in
    times := t :: !times;
    last := Some r
  done;
  (Option.get !last, Netrec_util.Stats.median !times)

(** Peak resident set of process [pid] ("self" for this one), MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> loop ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      loop ())

let fail_share () =
  if !attempted = 0 then 1.0 else float_of_int !failed /. float_of_int !attempted

(** Print every metric of the mode with its unit, then the result line
    (the last line of standard output).  An end-to-end metric the
    workload did not set is a failed check. *)
let emit ~trace =
  set "fail_share" (fail_share ());
  let catalog =
    if trace then per_layer else List.map (fun (n, u) -> (n, u, "")) end_to_end
  in
  let rows =
    List.map
      (fun (name, unit, moves) ->
        match Hashtbl.find_opt values name with
        | Some v -> (name, v, unit, moves)
        | None ->
          check trace "end-to-end metric %s was not measured" name;
          (name, 0.0, unit, moves))
      catalog
  in
  Printf.printf "fail_share %.6f (%d failed of %d attempted)\n" (fail_share ())
    !failed !attempted;
  List.iter
    (fun (n, v, u, moves) ->
      if moves = "" then Printf.printf "%-30s %16.6f %s\n" n v u
      else Printf.printf "%-30s %16.6f %-8s -> %s\n" n v u moves)
    rows;
  let correct = !attempted > 0 && !failed = 0 && !check_failures = 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, v, u, _) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
          rows));
  correct
