module Obs = Netrec_obs.Obs
module H = Netrec_obs.Obs.Histogram
module Diff = Netrec_obs.Metrics_diff
module Pool = Netrec_parallel.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Every test owns the global collector: start from a clean, enabled
   state and leave the collector disabled for whoever runs next. *)
let with_collector f () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let find_span path =
  List.find_opt (fun (s : Obs.span_stat) -> s.Obs.path = path) (Obs.span_stats ())

let get_span path =
  match find_span path with
  | Some s -> s
  | None -> Alcotest.failf "span %S not recorded" path

(* ---- disabled mode ---- *)

let test_disabled_noop () =
  Obs.reset ();
  Obs.set_enabled false;
  Obs.count "c";
  Obs.gauge "g" 1.0;
  check_int "span returns value" 7 (Obs.span "s" (fun () -> 7));
  check_bool "no counters" true (Obs.counters () = []);
  check_bool "no gauges" true (Obs.gauges () = []);
  check_bool "no spans" true (Obs.span_stats () = []);
  (* timed still measures, so figure tables keep working untraced *)
  let v, secs = Obs.timed "t" (fun () -> 11) in
  check_int "timed value" 11 v;
  check_bool "timed seconds >= 0" true (secs >= 0.0);
  check_bool "timed records nothing" true (Obs.span_stats () = [])

(* ---- counters ---- *)

let test_counter_accumulation =
  with_collector @@ fun () ->
  Obs.count "simplex.pivots";
  Obs.count "simplex.pivots";
  Obs.count ~n:40 "simplex.pivots";
  Obs.count "dijkstra.calls";
  check_int "accumulated" 42 (Obs.counter_value "simplex.pivots");
  check_int "independent" 1 (Obs.counter_value "dijkstra.calls");
  check_int "unknown is 0" 0 (Obs.counter_value "no.such");
  check_bool "sorted by name" true
    (Obs.counters ()
    = [ ("dijkstra.calls", 1); ("simplex.pivots", 42) ])

(* ---- spans ---- *)

let test_span_nesting =
  with_collector @@ fun () ->
  let inner () = Obs.span "b" (fun () -> Unix.sleepf 0.002) in
  Obs.span "a" (fun () ->
      inner ();
      inner ());
  Obs.span "a" (fun () -> ());
  let a = get_span "a" and b = get_span "a/b" in
  check_int "outer calls" 2 a.Obs.calls;
  check_int "inner calls under parent path" 2 b.Obs.calls;
  check_bool "no toplevel b" true (find_span "b" = None);
  check_bool "parent covers child" true (a.Obs.total_s >= b.Obs.total_s);
  check_bool "self excludes child time" true
    (a.Obs.self_s <= a.Obs.total_s -. b.Obs.total_s +. 1e-6)

let test_timing_monotonic =
  with_collector @@ fun () ->
  let _, s1 = Obs.timed "work" (fun () -> Unix.sleepf 0.001) in
  check_bool "measured at least the sleep" true (s1 >= 0.001);
  let t1 = (get_span "work").Obs.total_s in
  let _, _ = Obs.timed "work" (fun () -> Unix.sleepf 0.001) in
  let w = get_span "work" in
  check_int "calls accumulate" 2 w.Obs.calls;
  check_bool "total never decreases" true (w.Obs.total_s >= t1)

let test_span_exception_safe =
  with_collector @@ fun () ->
  (try Obs.span "outer" (fun () -> Obs.span "boom" (fun () -> failwith "x"))
   with Failure _ -> ());
  check_int "raising span recorded" 1 (get_span "outer/boom").Obs.calls;
  (* the stack was unwound: new spans open at the top level again *)
  Obs.span "after" (fun () -> ());
  check_bool "stack consistent after raise" true (find_span "after" <> None)

(* ---- gauges ---- *)

let test_gauge_stats =
  with_collector @@ fun () ->
  List.iter (Obs.gauge "residual") [ 5.0; 9.0; 2.0 ];
  match List.assoc_opt "residual" (Obs.gauges ()) with
  | None -> Alcotest.fail "gauge not recorded"
  | Some g ->
    check_int "samples" 3 g.Obs.samples;
    Alcotest.(check (float 1e-9)) "last" 2.0 g.Obs.last;
    Alcotest.(check (float 1e-9)) "min" 2.0 g.Obs.min;
    Alcotest.(check (float 1e-9)) "max" 9.0 g.Obs.max

(* ---- histograms ---- *)

let test_histogram_quantiles () =
  let h = H.create () in
  for v = 1 to 1000 do
    H.observe h (float_of_int v)
  done;
  check_int "count" 1000 (H.count h);
  Alcotest.(check (float 1e-9)) "sum" 500500.0 (H.sum h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (H.min_value h);
  Alcotest.(check (float 1e-9)) "max" 1000.0 (H.max_value h);
  (* Bucket-edge quantiles overestimate by at most one bucket width
     (12.5% relative with 8 sub-buckets per octave). *)
  let within q lo =
    let v = H.quantile h q in
    check_bool
      (Printf.sprintf "q%.2f=%g in [%g, %g]" q v lo (lo *. 1.125))
      true
      (v >= lo && v <= lo *. 1.125 +. 1e-9)
  in
  within 0.5 500.0;
  within 0.9 900.0;
  within 0.99 990.0;
  Alcotest.(check (float 1e-9)) "q1 is exact max" 1000.0 (H.quantile h 1.0)

let test_histogram_edge_cases () =
  let h = H.create () in
  check_bool "empty quantile is nan" true (Float.is_nan (H.quantile h 0.5));
  H.observe h 0.0;
  H.observe h (-3.0);
  H.observe h 7.0;
  check_int "non-positive values counted" 3 (H.count h);
  check_int "underflow bucket" 0 (H.bucket_index (-3.0));
  check_bool "q1 still exact max" true (H.quantile h 1.0 = 7.0);
  (* A single value sits inside its bucket: quantile comes back as the
     observed max, not the (larger) bucket edge. *)
  let one = H.create () in
  H.observe one 3.0;
  Alcotest.(check (float 1e-9)) "singleton p50 clamps to max" 3.0
    (H.quantile one 0.5);
  (* bucket_upper is the exact dyadic upper edge of a value's bucket. *)
  let v = 41.0 in
  let u = H.bucket_upper (H.bucket_index v) in
  check_bool "value below its bucket's upper edge" true (v <= u);
  check_bool "edge within one sub-bucket width" true (u <= v *. 1.125)

let test_histogram_merge_order_independent () =
  (* QCheck property: any split of any observation list into per-domain
     shards, merged in any order, reproduces the sequential histogram
     bit-for-bit.  Integral observations keep float sums exact, which is
     the case the [-j N] determinism contract covers (work counts). *)
  let gen =
    QCheck.make
      ~print:
        QCheck.Print.(pair (list (pair int int)) int)
      QCheck.Gen.(
        pair
          (list_size (int_bound 200) (pair (int_bound 5) (int_range 0 4096)))
          int)
  in
  let prop (tagged, _salt) =
    let sequential = H.create () in
    List.iter (fun (_, v) -> H.observe sequential (float_of_int v)) tagged;
    (* Shard by tag (the "domain"), then merge shards high-tag-first —
       the reverse of observation order. *)
    let shards = Array.init 6 (fun _ -> H.create ()) in
    List.iter
      (fun (tag, v) -> H.observe shards.(tag) (float_of_int v))
      tagged;
    let merged = H.create () in
    for tag = 5 downto 0 do
      H.merge_into ~into:merged shards.(tag)
    done;
    H.equal sequential merged
    && H.equal merged (List.fold_left H.merge (H.create ())
                         (Array.to_list shards))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"histogram merge order independence"
       gen prop)

let test_histograms_parallel_deterministic =
  with_collector @@ fun () ->
  (* The -j contract at the collector level: the same deterministic
     per-cell work observed from 1 and from 4 domains must export
     byte-identical quantiles (work-count histograms; wall-clock ones
     are inherently run-specific). *)
  let items = Array.init 64 (fun i -> i) in
  let run jobs =
    Obs.reset ();
    let pool = Pool.create ~jobs in
    Pool.iter_ordered pool
      ~f:(fun _ i ->
        Obs.observe "det.work_units" (float_of_int ((i * 37 mod 101) + 1)))
      ~consume:(fun _ () -> ())
      items;
    match Obs.histogram "det.work_units" with
    | None -> Alcotest.fail "histogram not recorded"
    | Some h ->
      (h.Obs.count, h.Obs.sum, h.Obs.min, h.Obs.max, h.Obs.p50, h.Obs.p90,
       h.Obs.p99)
  in
  let seq = run 1 and par = run 4 in
  check_bool "-j 1 and -j 4 quantiles identical" true (seq = par)

(* ---- progress events ---- *)

let test_events_ordered =
  with_collector @@ fun () ->
  Obs.event "milp.bound" [ ("nodes", 1.0); ("bound", 10.5) ];
  Obs.event "milp.incumbent" [ ("nodes", 3.0); ("objective", 12.0) ];
  Obs.event "isp.residual" [ ("iteration", 1.0); ("residual_demand", 42.0) ];
  let evs = Obs.events () in
  check_int "all retained" 3 (List.length evs);
  let seqs = List.map (fun e -> e.Obs.seq) evs in
  check_bool "sorted by seq" true (seqs = List.sort compare seqs);
  (match evs with
  | first :: _ ->
    check_bool "name" true (first.Obs.name = "milp.bound");
    check_bool "fields" true
      (first.Obs.fields = [ ("nodes", 1.0); ("bound", 10.5) ]);
    check_bool "timestamped" true (first.Obs.t_s >= 0.0)
  | [] -> Alcotest.fail "no events");
  check_int "nothing dropped" 0 (Obs.progress_dropped ())

let test_event_ring_overwrites =
  with_collector @@ fun () ->
  let extra = 25 in
  for i = 1 to Obs.event_ring_capacity + extra do
    Obs.event "tick" [ ("i", float_of_int i) ]
  done;
  check_int "ring keeps capacity" Obs.event_ring_capacity
    (List.length (Obs.events ()));
  check_int "dropped counted" extra (Obs.progress_dropped ());
  (* The survivors are the newest events (oldest were overwritten). *)
  let kept = List.map (fun e -> List.assoc "i" e.Obs.fields) (Obs.events ()) in
  check_bool "oldest overwritten" true
    (List.for_all (fun i -> i > float_of_int extra) kept)

let test_events_jsonl_flat =
  with_collector @@ fun () ->
  Obs.event "isp.residual" [ ("iteration", 2.0); ("residual_demand", 17.5) ];
  let doc = Obs.events_jsonl () in
  List.iter
    (fun n -> check_bool n true (contains doc n))
    [ "{\"type\":\"event\",\"name\":\"isp.residual\"";
      (* fields are inlined at the top level for sed/gnuplot extraction *)
      "\"iteration\":2,\"residual_demand\":17.5" ]

(* ---- GC deltas ---- *)

let test_gc_snapshot_and_span_attribution =
  with_collector @@ fun () ->
  let g0 = Obs.gc_snapshot () in
  Obs.span "alloc" (fun () ->
      ignore (Sys.opaque_identity (Array.make 100_000 0.0)));
  let d = Obs.gc_delta g0 (Obs.gc_snapshot ()) in
  check_bool "process delta sees the allocation" true
    (d.Obs.minor_words +. d.Obs.major_words >= 100_000.0);
  let s = get_span "alloc" in
  check_bool "span attributed the words" true
    (s.Obs.minor_words +. s.Obs.major_words >= 100_000.0);
  check_bool "no compaction" true (s.Obs.compactions >= 0)

(* ---- metrics diff ---- *)

let doc_with ~mode ~pivots ~p99 =
  Printf.sprintf
    {|{"schema":"netrec-bench-metrics/5","mode":"%s",
      "lp_gate":{"opt.proved":1,"simplex.pivots":%d,"milp.nodes":43},
      "metrics":{"counters":{"isp.iterations":100},
                 "gauges":{},
                 "histograms":{"simplex.pivots_per_solve":
                   {"count":10,"sum":100,"min":1,"max":40,
                    "p50":20,"p90":35,"p99":%g}},
                 "progress":[]}}|}
    mode pivots p99

let run_diff base current =
  Diff.diff ~base:(Diff.Json.parse base) ~current:(Diff.Json.parse current)

let test_diff_clean () =
  let d = doc_with ~mode:"quick" ~pivots:6794 ~p99:40.0 in
  let r = run_diff d d in
  check_bool "self-diff has no regressions" true (r.Diff.regressions = [])

let test_diff_flags_p99_regression () =
  let base = doc_with ~mode:"quick" ~pivots:6794 ~p99:40.0 in
  (* +12.5% p99 > the 10% quantile gate *)
  let cur = doc_with ~mode:"quick" ~pivots:6794 ~p99:45.0 in
  let r = run_diff base cur in
  check_bool "p99 regression flagged" true
    (List.exists
       (fun s -> contains s "simplex.pivots_per_solve p99")
       r.Diff.regressions);
  (* The same drift across modes must NOT gate: the workloads differ. *)
  let cur_fig4 = doc_with ~mode:"fig4" ~pivots:6794 ~p99:45.0 in
  let r = run_diff base cur_fig4 in
  check_bool "cross-mode quantiles skipped" true (r.Diff.regressions = [])

(* The single-sample wall-clock [benchmarks] block of older baselines
   gates nothing; the lp gate's drift keys do. *)
let test_diff_gates_benchmarks_and_lp () =
  let base = doc_with ~mode:"quick" ~pivots:6794 ~p99:40.0 in
  let old_base bench_ms =
    Printf.sprintf {|{"benchmarks":{"fig4:isp":%g},%s|} bench_ms
      (String.sub base 1 (String.length base - 1))
  in
  check_bool "old baseline with benchmarks diffs clean" true
    ((run_diff (old_base 100.0) base).Diff.regressions = []);
  check_bool "benchmarks on both sides are not compared" true
    ((run_diff (old_base 100.0) (old_base 140.0)).Diff.regressions = []);
  (* 8289 is +22% yet under the 8310 ceiling: this fails on drift alone. *)
  let drift = doc_with ~mode:"quick" ~pivots:8289 ~p99:40.0 in
  let r = run_diff base drift in
  check_bool "+22% pivot drift fails the lp gate" true
    (List.exists (fun s -> contains s "simplex.pivots") r.Diff.regressions)

(* Work histograms are deterministic: their quantiles drift-gate either
   way like the gate blocks, and leaving 0 is infinite drift.  Wall-clock
   (_ms) histograms are never gated. *)
let test_diff_histogram_drift () =
  let doc ~name ~p50 ~p99 =
    Printf.sprintf
      {|{"schema":"netrec-bench-metrics/5","mode":"quick",
        "metrics":{"counters":{},"gauges":{},
                   "histograms":{"%s":
                     {"count":10,"sum":100,"min":0,"max":40,
                      "p50":%g,"p90":35,"p99":%g}},
                   "progress":[]}}|}
      name p50 p99
  in
  let regs name (p50, p99) (p50', p99') =
    (run_diff (doc ~name ~p50 ~p99) (doc ~name ~p50:p50' ~p99:p99'))
      .Diff.regressions
  in
  let work = "simplex.pivots_per_solve" and wall = "isp.solve_ms" in
  check_bool "work p99 40 -> 30 fails" true
    (List.exists (fun s -> contains s (work ^ " p99")) (regs work (20.0, 40.0) (20.0, 30.0)));
  check_bool "work p50 0 -> 0.5 fails" true
    (List.exists (fun s -> contains s (work ^ " p50")) (regs work (0.0, 40.0) (0.5, 40.0)));
  check_bool "work p50 0 -> 0 passes" true (regs work (0.0, 40.0) (0.0, 40.0) = []);
  check_bool "work p99 +5% passes" true (regs work (20.0, 40.0) (20.0, 42.0) = []);
  check_bool "_ms p99 +50% passes" true (regs wall (20.0, 40.0) (20.0, 60.0) = []);
  check_bool "_ms p50 0 -> 5 passes" true (regs wall (0.0, 40.0) (5.0, 40.0) = [])

let test_diff_missing_quantile_key () =
  let base = doc_with ~mode:"quick" ~pivots:6794 ~p99:40.0 in
  let cur =
    {|{"schema":"netrec-bench-metrics/5","mode":"quick",
      "lp_gate":{"opt.proved":1,"simplex.pivots":6794,"milp.nodes":43},
      "metrics":{"counters":{},"gauges":{},
                 "histograms":{"simplex.pivots_per_solve":
                   {"count":10,"sum":100,"min":1,"max":40,"p50":20,"p90":35}},
                 "progress":[]}}|}
  in
  let r = run_diff base cur in
  check_bool "missing p99 key is a regression" true
    (List.exists
       (fun s -> contains s "quantile p99 missing")
       r.Diff.regressions)

let doc_with_xl ~certified ~violations ~shards =
  Printf.sprintf
    {|{"schema":"netrec-bench-metrics/5","mode":"quick",
      "lp_gate":{"opt.proved":1,"simplex.pivots":6794,"milp.nodes":43},
      "xl_gate":{"xl.certified":%d,"check.violations":%d,
                 "isp.shard_count":%d,"isp.shard_delegated":0,
                 "xl.repairs_total":50,"isp.shard_cut_demands":12,
                 "bidir.scanned":31012},
      "metrics":{"counters":{},"gauges":{},"histograms":{},
                 "progress":[]}}|}
    certified violations shards

let test_diff_xl_gate () =
  let base = doc_with_xl ~certified:1 ~violations:0 ~shards:4 in
  check_bool "self-diff clean" true ((run_diff base base).Diff.regressions = []);
  (* Certification and violation counts are hard invariants: any current
     run that is uncertified or carries violations fails, whatever the
     baseline says. *)
  let broken = doc_with_xl ~certified:1 ~violations:2 ~shards:4 in
  check_bool "violations regress" true
    (List.exists
       (fun s -> contains s "check.violations")
       (run_diff base broken).Diff.regressions);
  let uncert = doc_with_xl ~certified:0 ~violations:0 ~shards:4 in
  check_bool "uncertified regresses" true
    (List.exists
       (fun s -> contains s "xl.certified")
       (run_diff base uncert).Diff.regressions);
  (* Shard counts are deterministic, so drift beyond the lp tolerance is
     a structural change in the partitioning and must gate. *)
  let drifted = doc_with_xl ~certified:1 ~violations:0 ~shards:6 in
  check_bool "+50% shard drift regresses" true
    (List.exists
       (fun s -> contains s "isp.shard_count")
       (run_diff base drifted).Diff.regressions);
  (* A missing section only regresses when the baseline had one. *)
  let without = doc_with ~mode:"quick" ~pivots:6794 ~p99:40.0 in
  check_bool "section vanishing regresses" true
    (List.exists
       (fun s -> contains s "xl_gate")
       (run_diff base without).Diff.regressions);
  check_bool "no baseline section, skipped" true
    ((run_diff without without).Diff.regressions = [])

(* A baseline key that vanishes from the current gate block regresses,
   drift-gated or not, in every block. *)
let test_diff_vanished_gate_keys () =
  let base = doc_with_xl ~certified:1 ~violations:0 ~shards:4 in
  let cur =
    {|{"schema":"netrec-bench-metrics/5","mode":"quick",
      "lp_gate":{"opt.proved":1},
      "xl_gate":{"xl.certified":1,"check.violations":0,
                 "isp.shard_cut_demands":12},
      "metrics":{"counters":{},"gauges":{},"histograms":{},
                 "progress":[]}}|}
  in
  let regs = (run_diff base cur).Diff.regressions in
  List.iter
    (fun key ->
      check_bool (key ^ " vanishing regresses") true
        (List.exists (fun s -> contains s key) regs))
    [ "simplex.pivots"; "milp.nodes"; "isp.shard_count"; "isp.shard_delegated";
      "xl.repairs_total" ]

(* ---- the gate table, one case per row ---- *)

let num_obj kvs = Diff.Json.Obj (List.map (fun (k, v) -> (k, Diff.Json.Num v)) kvs)

(* A block meeting every requirement of its row: invariant keys at
   their bound, or a factor of two inside it (so a drift probe of the
   same key tests the drift gate, not the bound), every other key at
   100. *)
let satisfying_block (g : Diff.gate) =
  let at_bound = function
    | Diff.Eq x -> x
    | Diff.At_most x -> x /. 2.0
    | Diff.At_least x -> x *. 2.0
    | Diff.Positive | Diff.Present -> 100.0
  in
  List.fold_left
    (fun acc k -> if List.mem_assoc k acc then acc else acc @ [ (k, 100.0) ])
    (List.map (fun (k, b) -> (k, at_bound b)) g.Diff.invariants)
    (g.Diff.drift @ g.Diff.live @ g.Diff.present)

let gate_doc (g : Diff.gate) kvs =
  Diff.Json.Obj
    [ ("schema", Diff.Json.Str Diff.schema); ("mode", Diff.Json.Str "quick");
      (g.Diff.block, num_obj kvs) ]

let with_value kvs key v =
  List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) kvs

let test_diff_gate_table () =
  let rows = Diff.gates in
  (* The table carries the documented hard invariants and drift keys. *)
  List.iter
    (fun (block, key) ->
      check_bool
        (Printf.sprintf "%s %s in the table" block key)
        true
        (List.exists
           (fun (g : Diff.gate) ->
             g.Diff.block = block
             && (List.mem_assoc key g.Diff.invariants || List.mem key g.Diff.drift))
           rows))
    [ ("lp_gate", "opt.proved"); ("lp_gate", "simplex.pivots");
      ("lp_gate", "milp.nodes"); ("xl_gate", "xl.certified");
      ("xl_gate", "check.violations"); ("xl_gate", "isp.shard_count");
      ("xl_gate", "isp.shard_delegated"); ("xl_gate", "xl.repairs_total");
      ("xl_gate", "bidir.scanned"); ("sched_gate", "sched.oracle_proved"); ("sched_gate", "sched.certified");
      ("sched_gate", "sched.regret_microunits");
      ("sched_gate", "sched.plan_rounds");
      ("work_gate", "shard_caida.delegated"); ("work_gate", "mcf_lp.routable");
      ("work_gate", "mcb.pivots"); ("work_gate", "grd_com.paths");
      ("work_gate", "forest.tree_solves"); ("work_gate", "shard_caida.iterations") ];
  let regs base cur =
    (Diff.diff ~base ~current:cur).Diff.regressions
  in
  List.iter
    (fun (g : Diff.gate) ->
      let kvs = satisfying_block g in
      let base = gate_doc g kvs in
      check_bool (g.Diff.block ^ " self-diff clean") true (regs base base = []);
      (* Every hard invariant: a violating current run regresses. *)
      List.iter
        (fun (key, bound) ->
          let bad =
            match bound with
            | Diff.Eq x -> Some (if x = 0.0 then 1.0 else 0.0)
            | Diff.At_most x -> Some (x +. 1.0)
            | Diff.At_least x -> Some (x -. 1.0)
            | Diff.Positive -> Some 0.0
            | Diff.Present -> None
          in
          let cur =
            match bad with
            | Some v -> with_value kvs key v
            | None -> List.remove_assoc key kvs
          in
          check_bool
            (Printf.sprintf "%s %s violation regresses" g.Diff.block key)
            true
            (List.exists (fun s -> contains s key) (regs base (gate_doc g cur))))
        g.Diff.invariants;
      (* Every drift key: more than 10% either way regresses, 5% passes. *)
      List.iter
        (fun key ->
          let v = List.assoc key kvs in
          List.iter
            (fun f ->
              check_bool
                (Printf.sprintf "%s %s x%.2f regresses" g.Diff.block key f)
                true
                (List.exists
                   (fun s -> contains s key)
                   (regs base (gate_doc g (with_value kvs key (f *. v))))))
            [ 1.11; 0.89 ];
          let nudged = with_value kvs key (1.05 *. v) in
          check_bool
            (Printf.sprintf "%s %s +5%% passes" g.Diff.block key)
            true
            (regs base (gate_doc g nudged) = []))
        g.Diff.drift)
    rows

(* ---- metrics validate ---- *)

(* The run-record requirements, written out independently of the table
   in Metrics_diff: every rule the bench validator has always enforced. *)
let live_counters =
  [ "isp.iterations"; "simplex.pivots"; "dijkstra.calls";
    "centrality.cache_hits"; "parallel.cells"; "simplex.warm_starts";
    "simplex.phase1_skipped"; "milp.nodes"; "milp.nodes_pruned";
    "isp.shard_count"; "isp.shard_region_vertices"; "isp.shard_cut_demands";
    "centrality.sampled_recomputed"; "sched.plans"; "sched.rounds";
    "sched.evals"; "sched.ls_passes"; "sched.moves_tried";
    "sched.oracle_solves"; "sched.oracle_nodes"; "presolve.runs";
    "presolve.vars_fixed"; "presolve.rows_dropped";
    "presolve.bounds_tightened"; "cuts.separated"; "cuts.added";
    "cuts.root_solves"; "simplex.dse_pivots" ]

let present_counters =
  [ "centrality.cache_misses"; "isp.shard_fixup_paths"; "isp.shard_delegated";
    "centrality.sampled_skipped"; "sched.moves_applied" ]

let required_histograms =
  [ "isp.iteration_ms"; "isp.solve_ms"; "shard.solve_ms";
    "simplex.pivots_per_solve"; "milp.nodes_per_solve";
    "dijkstra.settled_per_call"; "parallel.batch_cells";
    "sched.round_satisfaction" ]

let lp_gate_live =
  [ "simplex.pivots"; "simplex.solves"; "simplex.warm_starts"; "milp.nodes";
    "simplex.dse_pivots"; "presolve.runs"; "presolve.vars_fixed";
    "cuts.separated"; "cuts.added"; "cuts.root_solves" ]

let lp_gate_present =
  [ "presolve.rows_dropped"; "presolve.bounds_tightened";
    "presolve.coefs_tightened"; "simplex.dse_resets"; "cuts.rejected";
    "cuts.aged_out" ]

let sched_gate_live =
  [ "sched.plans"; "sched.rounds"; "sched.evals"; "sched.oracle_solves";
    "sched.oracle_nodes"; "sched.plan_rounds" ]

let work_gate_live =
  [ "mcb.repairs_total"; "mcb.pivots"; "mcf_lp.pivots"; "grd_com.repairs_total";
    "grd_com.paths"; "srt.repairs_total"; "srt.settled"; "isp_er.repairs_total";
    "isp_er.iterations"; "isp_er.settled"; "forest.optimum";
    "forest.tree_solves"; "shard_caida.repairs_total"; "shard_caida.iterations" ]

let minimal_valid_doc () =
  let open Diff.Json in
  let ones = List.map (fun k -> (k, 1.0)) and zeros = List.map (fun k -> (k, 0.0)) in
  let gauge = num_obj [ ("last", 1.0); ("min", 1.0); ("max", 1.0); ("samples", 1.0) ] in
  let hist =
    num_obj
      [ ("count", 1.0); ("sum", 1.0); ("min", 1.0); ("max", 1.0); ("p50", 1.0);
        ("p90", 1.0); ("p99", 1.0) ]
  in
  Obj
    [ ("schema", Str "netrec-bench-metrics/5"); ("mode", Str "quick");
      ( "lp_gate",
        num_obj ((("opt.proved", 1.0) :: ones lp_gate_live) @ zeros lp_gate_present) );
      ( "xl_gate",
        num_obj
          [ ("xl.certified", 1.0); ("check.violations", 0.0);
            ("isp.shard_count", 2.0); ("isp.shard_delegated", 0.0);
            ("xl.repairs_total", 1.0); ("bidir.scanned", 1.0) ] );
      ( "sched_gate",
        num_obj
          ([ ("sched.oracle_proved", 1.0); ("sched.certified", 1.0);
             ("sched.regret_microunits", 50_000.0);
             ("sched.greedy_auc_microunits", 1.0);
             ("sched.ls_auc_microunits", 1.0);
             ("sched.oracle_auc_microunits", 1.0) ]
          @ ones sched_gate_live) );
      ( "work_gate",
        num_obj
          ([ ("shard_caida.delegated", 1.0); ("mcf_lp.routable", 1.0) ]
          @ ones work_gate_live) );
      ( "metrics",
        Obj
          [ ( "counters",
              num_obj (ones live_counters @ zeros present_counters) );
            ("gauges", Obj [ ("parallel.cells_per_domain", gauge) ]);
            ("histograms", Obj (List.map (fun h -> (h, hist)) required_histograms));
            ( "progress",
              Obj
                [ ("events", Num 1.0); ("dropped", Num 0.0);
                  ("by_name", num_obj [ ("isp.residual", 1.0) ]) ] ) ] ) ]

(* Replace the member at [path] with [v], or remove it when [v] is [None]. *)
let rec edit path v doc =
  let open Diff.Json in
  match (path, doc) with
  | [ k ], Obj kvs ->
    Obj
      (List.filter (fun (k', _) -> k' <> k) kvs
      @ match v with Some v -> [ (k, v) ] | None -> [])
  | k :: rest, Obj kvs ->
    Obj (List.map (fun (k', x) -> if k' = k then (k', edit rest v x) else (k', x)) kvs)
  | _ -> doc

let test_validate_rules () =
  let open Diff.Json in
  let valid = minimal_valid_doc () in
  let failures doc = (Diff.validate doc).Diff.regressions in
  check_bool "minimal document is valid" true (failures valid = []);
  let zero = Some (Num 0.0) and gone = None in
  let counter k = [ "metrics"; "counters"; k ] in
  let mutations =
    [ ("schema", [ "schema" ], Some (Str "netrec-bench-metrics/3"));
      ("opt.proved", [ "lp_gate"; "opt.proved" ], zero);
      ("simplex.pivots", [ "lp_gate"; "simplex.pivots" ], Some (Num 8311.0));
      ("milp.nodes", [ "lp_gate"; "milp.nodes" ], Some (Num 71.0));
      ("xl.certified", [ "xl_gate"; "xl.certified" ], zero);
      ("check.violations", [ "xl_gate"; "check.violations" ], Some (Num 2.0));
      ("isp.shard_count", [ "xl_gate"; "isp.shard_count" ], Some (Num 1.0));
      ("isp.shard_delegated", [ "xl_gate"; "isp.shard_delegated" ], Some (Num 1.0));
      ("bidir.scanned", [ "xl_gate"; "bidir.scanned" ], Some (Num 46501.0));
      ("xl_gate", [ "xl_gate" ], gone);
      ("bidir.scanned", [ "xl_gate"; "bidir.scanned" ], gone);
      ("sched.oracle_proved", [ "sched_gate"; "sched.oracle_proved" ], zero);
      ("sched.certified", [ "sched_gate"; "sched.certified" ], zero);
      ( "sched.regret_microunits",
        [ "sched_gate"; "sched.regret_microunits" ],
        Some (Num 50_001.0) );
      ( "parallel.cells_per_domain",
        [ "metrics"; "gauges"; "parallel.cells_per_domain"; "samples" ],
        zero );
      ( "parallel.cells_per_domain",
        [ "metrics"; "gauges"; "parallel.cells_per_domain"; "max" ],
        zero );
      ("shard_caida.delegated", [ "work_gate"; "shard_caida.delegated" ], zero);
      ("mcf_lp.routable", [ "work_gate"; "mcf_lp.routable" ], zero);
      ("forest.tree_solves", [ "work_gate"; "forest.tree_solves" ], zero);
      ("mcb.pivots", [ "work_gate"; "mcb.pivots" ], gone);
      ("work_gate", [ "work_gate" ], gone);
      ( "isp.residual",
        [ "metrics"; "progress"; "by_name"; "isp.residual" ],
        gone ) ]
    @ List.map (fun k -> (k, counter k, zero)) live_counters
    @ List.map (fun k -> (k, counter k, gone)) present_counters
    @ List.map (fun k -> (k, [ "lp_gate"; k ], zero)) lp_gate_live
    @ List.map (fun k -> (k, [ "lp_gate"; k ], gone)) lp_gate_present
    @ List.map (fun k -> (k, [ "sched_gate"; k ], zero)) sched_gate_live
    @ List.concat_map
        (fun h ->
          let at q = [ "metrics"; "histograms"; h; q ] in
          [ (h, [ "metrics"; "histograms"; h ], gone); (h, at "count", zero);
            (h, at "p50", gone); (h, at "p90", gone); (h, at "p99", gone);
            (h, at "min", gone); (h, at "max", gone) ])
        required_histograms
  in
  List.iter
    (fun (key, path, v) ->
      let fs = failures (edit path v valid) in
      check_bool
        (Printf.sprintf "%s: mutation fails naming the key" (String.concat "/" path))
        true
        (fs <> [] && List.exists (fun s -> contains s key) fs))
    mutations

let test_validate_committed_baseline () =
  (* Under dune the test runs in _build/default/test. *)
  let path =
    if Sys.file_exists "../BENCH_metrics.json" then "../BENCH_metrics.json"
    else "BENCH_metrics.json"
  in
  let r = Diff.validate_file path in
  if r.Diff.regressions <> [] then
    Alcotest.failf "committed baseline invalid:\n%s" (Diff.report_to_string r)

let test_validate_bad_files () =
  let fails r = r.Diff.regressions <> [] in
  check_bool "missing file fails" true
    (fails (Diff.validate_file "/nonexistent/BENCH_metrics.json"));
  List.iter
    (fun (label, contents) ->
      let path = Filename.temp_file "netrec_metrics" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          output_string oc contents;
          close_out oc;
          match Diff.validate_file path with
          | r -> check_bool (label ^ " fails") true (fails r)
          | exception e ->
            Alcotest.failf "%s raised %s" label (Printexc.to_string e)))
    [ ("empty file", ""); ("truncated object", {|{"schema":|});
      ("trailing garbage", "{} x"); ("bad unicode escape", {|{"a":"\uZZZZ"}|});
      ("not an object", "[1,2,3]"); ("wrong types", {|{"schema":3,"metrics":[]}|}) ]

let test_json_parser () =
  let open Diff.Json in
  (match parse {| {"a":[1,2.5,-3e2],"b":"x\n\"yA","c":true,"d":null} |} with
  | Obj kvs ->
    check_bool "array numbers" true
      (List.assoc "a" kvs = Arr [ Num 1.0; Num 2.5; Num (-300.0) ]);
    check_bool "string escapes" true
      (List.assoc "b" kvs = Str "x\n\"yA");
    check_bool "bool" true (List.assoc "c" kvs = Bool true);
    check_bool "null" true (List.assoc "d" kvs = Null)
  | _ -> Alcotest.fail "not an object");
  let bad s =
    match parse s with
    | exception Parse_error _ -> true
    | _ -> false
  in
  check_bool "trailing garbage rejected" true (bad "{} x");
  check_bool "unterminated string rejected" true (bad {|{"a|});
  check_bool "bare word rejected" true (bad "nope");
  (* %.17g's non-finite spellings: numbers only when asked for. *)
  List.iter
    (fun w -> check_bool (w ^ " rejected by default") true (bad ({|{"a":|} ^ w ^ "}")))
    [ "nan"; "-nan"; "inf"; "-inf" ];
  (match
     parse ~non_finite:true {|[nan,-nan,inf,-inf,null,true,false,1.5]|}
   with
  | Arr [ Num a; Num b; Num c; Num d; Null; Bool true; Bool false; Num 1.5 ] ->
    check_bool "nan" true (Float.is_nan a);
    check_bool "-nan keeps its sign" true (Float.is_nan b && Float.sign_bit b);
    check_bool "inf" true (c = Float.infinity);
    check_bool "-inf" true (d = Float.neg_infinity)
  | _ -> Alcotest.fail "non-finite mode misread the array");
  let bad_nf s =
    match parse ~non_finite:true s with
    | exception Parse_error _ -> true
    | _ -> false
  in
  check_bool "infinity is not a token" true (bad_nf "[infinity]");
  check_bool "nanx is not a token" true (bad_nf "[nanx]")

(* ---- exporters ---- *)

let record_some_everything () =
  Obs.count ~n:3 "isp.iterations";
  Obs.gauge "isp.residual_demand" 1.5;
  Obs.observe "isp.iteration_ms" 2.5;
  Obs.event "isp.residual" [ ("iteration", 1.0); ("residual_demand", 9.0) ];
  Obs.span "isp.solve" (fun () -> Obs.span "isp.iteration" (fun () -> ()))

let test_jsonl_well_formed =
  with_collector @@ fun () ->
  record_some_everything ();
  let lines =
    String.split_on_char '\n' (Obs.jsonl ())
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_bool "has lines" true (List.length lines >= 4);
  List.iter
    (fun l ->
      check_bool "line is a JSON object" true
        (String.length l >= 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      check_bool "line is typed" true
        (List.exists
           (fun t ->
             let tag = Printf.sprintf "{\"type\":\"%s\"" t in
             String.length l >= String.length tag
             && String.sub l 0 (String.length tag) = tag)
           [ "counter"; "gauge"; "histogram"; "span"; "event"; "meta" ]))
    lines;
  let doc = Obs.jsonl () in
  List.iter
    (fun n -> check_bool n true (contains doc n))
    [ "\"isp.iterations\""; "\"isp.residual_demand\"";
      "\"isp.iteration_ms\""; "\"isp.residual\"";
      "\"isp.solve/isp.iteration\"" ]

let test_metrics_json_shape =
  with_collector @@ fun () ->
  record_some_everything ();
  let doc = Obs.metrics_json () in
  check_bool "object" true (doc.[0] = '{' && doc.[String.length doc - 1] = '}');
  List.iter
    (fun n -> check_bool n true (contains doc n))
    [ "\"counters\""; "\"gauges\""; "\"histograms\""; "\"progress\"";
      "\"isp.iterations\":3"; "\"p50\""; "\"p90\""; "\"p99\"" ];
  (* Spans are per-run wall clock: the trace and JSONL exports carry
     them, the run record does not. *)
  check_bool "no spans" false (contains doc "\"spans\"");
  (* The whole document round-trips through the vendored parser. *)
  match Diff.Json.parse doc with
  | exception Diff.Json.Parse_error msg ->
    Alcotest.failf "metrics_json does not parse: %s" msg
  | _ -> ()

let test_chrome_trace_well_formed =
  with_collector @@ fun () ->
  record_some_everything ();
  let doc = Obs.chrome_trace () in
  List.iter
    (fun n -> check_bool n true (contains doc n))
    [ "\"traceEvents\""; "\"ph\":\"X\""; "\"ts\":"; "\"dur\":";
      "\"isp.iteration\"" ];
  let path = Filename.temp_file "netrec_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.write_chrome_trace path;
      let ic = open_in path in
      let len = in_channel_length ic in
      let round_trip = really_input_string ic len in
      close_in ic;
      check_bool "file round-trips" true (String.trim round_trip = String.trim doc))

let test_reset_clears =
  with_collector @@ fun () ->
  record_some_everything ();
  check_bool "recorded" true (Obs.counters () <> []);
  Obs.reset ();
  check_bool "counters cleared" true (Obs.counters () = []);
  check_bool "gauges cleared" true (Obs.gauges () = []);
  check_bool "spans cleared" true (Obs.span_stats () = []);
  check_bool "histograms cleared" true (Obs.histograms () = []);
  check_bool "events cleared" true (Obs.events () = []);
  check_int "no drops" 0 (Obs.events_dropped ());
  check_int "no progress drops" 0 (Obs.progress_dropped ())

let () =
  Alcotest.run "netrec_obs"
    [ ( "obs",
        [ Alcotest.test_case "disabled mode records nothing" `Quick
            test_disabled_noop;
          Alcotest.test_case "counter accumulation" `Quick
            test_counter_accumulation;
          Alcotest.test_case "span nesting paths" `Quick test_span_nesting;
          Alcotest.test_case "timing monotonicity" `Quick test_timing_monotonic;
          Alcotest.test_case "span exception safety" `Quick
            test_span_exception_safe;
          Alcotest.test_case "gauge last/min/max" `Quick test_gauge_stats;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "histogram edge cases" `Quick
            test_histogram_edge_cases;
          Alcotest.test_case "histogram merge order independence" `Quick
            test_histogram_merge_order_independent;
          Alcotest.test_case "-j 1 vs -j 4 histograms identical" `Quick
            test_histograms_parallel_deterministic;
          Alcotest.test_case "events ordered and fielded" `Quick
            test_events_ordered;
          Alcotest.test_case "event ring overwrites oldest" `Quick
            test_event_ring_overwrites;
          Alcotest.test_case "events_jsonl flat fields" `Quick
            test_events_jsonl_flat;
          Alcotest.test_case "gc snapshot and span attribution" `Quick
            test_gc_snapshot_and_span_attribution;
          Alcotest.test_case "diff: clean self-diff" `Quick test_diff_clean;
          Alcotest.test_case "diff: p99 regression gated" `Quick
            test_diff_flags_p99_regression;
          Alcotest.test_case "diff: benchmark and lp gates" `Quick
            test_diff_gates_benchmarks_and_lp;
          Alcotest.test_case "diff: histogram drift either way, _ms not gated"
            `Quick test_diff_histogram_drift;
          Alcotest.test_case "diff: missing quantile key" `Quick
            test_diff_missing_quantile_key;
          Alcotest.test_case "diff: xl gate" `Quick test_diff_xl_gate;
          Alcotest.test_case "diff: vanished gate keys regress" `Quick
            test_diff_vanished_gate_keys;
          Alcotest.test_case "diff: gate table rows" `Quick test_diff_gate_table;
          Alcotest.test_case "validate: one mutation per rule" `Quick
            test_validate_rules;
          Alcotest.test_case "validate: committed baseline" `Quick
            test_validate_committed_baseline;
          Alcotest.test_case "validate: bad files fail" `Quick
            test_validate_bad_files;
          Alcotest.test_case "vendored json parser" `Quick test_json_parser;
          Alcotest.test_case "jsonl well-formedness" `Quick
            test_jsonl_well_formed;
          Alcotest.test_case "metrics_json shape" `Quick
            test_metrics_json_shape;
          Alcotest.test_case "chrome trace well-formedness" `Quick
            test_chrome_trace_well_formed;
          Alcotest.test_case "reset clears everything" `Quick
            test_reset_clears ] ) ]
