open Netrec_graph
module Budget = Netrec_resilience.Budget
module Anytime = Netrec_resilience.Anytime
module Chain = Netrec_resilience.Chain
module Lp = Netrec_lp.Lp
module Milp = Netrec_lp.Milp
module Journal = Netrec_experiments.Journal
module Instance = Netrec_core.Instance
module Isp = Netrec_core.Isp
module Evaluate = Netrec_core.Evaluate
module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
module H = Netrec_heuristics

(* A settable clock: deadline behaviour becomes fully deterministic —
   tests advance time explicitly instead of racing the wall clock. *)
let fake_clock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun t -> now := t)

let is_deadline = function Some (Budget.Deadline _) -> true | _ -> false
let is_work = function Some (Budget.Work _) -> true | _ -> false

(* ---- Budget ---- *)

let test_budget_unlimited () =
  Alcotest.(check bool) "ok" true (Budget.ok Budget.unlimited);
  Alcotest.(check bool) "not limited" false (Budget.is_limited Budget.unlimited);
  Alcotest.(check bool) "no reason" true (Budget.check Budget.unlimited = None)

let test_budget_work_cap_latches () =
  let b = Budget.create ~work_cap:2 () in
  Alcotest.(check bool) "fresh" true (Budget.ok b);
  Budget.spend b;
  Alcotest.(check bool) "one left" true (Budget.ok b);
  Budget.spend b;
  Alcotest.(check bool) "exhausted" false (Budget.ok b);
  Alcotest.(check bool) "work reason" true (is_work (Budget.check b));
  Alcotest.(check int) "spent" 2 (Budget.spent b);
  (* Latched: still tripped on every later query. *)
  Alcotest.(check bool) "latched" true (is_work (Budget.tripped b))

let test_budget_deadline_fake_clock () =
  let clock, set = fake_clock () in
  let b = Budget.create ~clock ~deadline_s:1.0 () in
  Alcotest.(check bool) "fresh" true (Budget.ok b);
  set 0.5;
  Alcotest.(check bool) "halfway" true (Budget.ok b);
  set 1.5;
  Alcotest.(check bool) "expired" false (Budget.ok b);
  (match Budget.check b with
  | Some (Budget.Deadline { elapsed_s; limit_s }) ->
    Alcotest.(check (float 1e-9)) "limit" 1.0 limit_s;
    Alcotest.(check bool) "elapsed past limit" true (elapsed_s >= 1.0)
  | r ->
    Alcotest.failf "expected Deadline, got %s"
      (match r with None -> "None" | Some r -> Budget.reason_to_string r));
  (* Latched even if the clock rolls back. *)
  set 0.0;
  Alcotest.(check bool) "latched" false (Budget.ok b)

let test_budget_stage_nesting () =
  let clock, set = fake_clock () in
  let parent = Budget.create ~clock ~deadline_s:1.0 ~work_cap:10 () in
  (* Child deadline is capped by the parent's remaining time. *)
  let child = Budget.stage ~deadline_s:5.0 parent in
  (match Budget.limit_s child with
  | Some l -> Alcotest.(check bool) "child capped by parent" true (l <= 1.0 +. 1e-9)
  | None -> Alcotest.fail "child should inherit a deadline");
  (* Work spent through a child charges the parent too. *)
  let worker = Budget.stage ~work_cap:3 parent in
  Budget.spend ~n:3 worker;
  Alcotest.(check bool) "child work-tripped" true (is_work (Budget.check worker));
  Alcotest.(check int) "parent charged" 3 (Budget.spent parent);
  Alcotest.(check bool) "parent still ok" true (Budget.ok parent);
  (* A tripped parent poisons fresh children. *)
  set 2.0;
  Alcotest.(check bool) "parent expired" false (Budget.ok parent);
  let late = Budget.stage ~deadline_s:5.0 parent in
  Alcotest.(check bool) "late child dead on arrival" false (Budget.ok late)

(* ---- anytime LP / MILP ---- *)

let two_var_lp () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:5.0 ~obj:(-1.0) () in
  let y = Lp.add_var lp ~ub:5.0 ~obj:(-1.0) () in
  Lp.add_constraint lp [ (x, 1.0); (y, 1.0) ] Lp.Le 8.0;
  lp

let test_lp_complete_unbudgeted () =
  let sol = Lp.solve (two_var_lp ()) in
  Alcotest.(check bool) "optimal" true (sol.Lp.status = Lp.Optimal);
  Alcotest.(check (float 1e-6)) "objective" (-8.0) sol.Lp.objective;
  Alcotest.(check bool) "not limited" true (sol.Lp.limited = None)

let test_lp_partial_on_work_cap () =
  let budget = Budget.create ~work_cap:1 () in
  let sol = Lp.solve ~budget (two_var_lp ()) in
  Alcotest.(check bool) "iteration limit" true
    (sol.Lp.status = Lp.Iteration_limit);
  Alcotest.(check bool) "work reason" true (is_work sol.Lp.limited)

let test_lp_skips_build_when_spent () =
  (* A pre-tripped budget must return without touching the model. *)
  let clock, set = fake_clock () in
  let budget = Budget.create ~clock ~deadline_s:0.5 () in
  set 1.0;
  let sol = Lp.solve ~budget (two_var_lp ()) in
  Alcotest.(check bool) "iteration limit" true
    (sol.Lp.status = Lp.Iteration_limit);
  Alcotest.(check int) "no pivots" 0 sol.Lp.pivots;
  Alcotest.(check bool) "deadline reason" true (is_deadline sol.Lp.limited)

let binary_cover_lp () =
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:1.0 ~obj:1.0 () in
  let y = Lp.add_var p ~ub:1.0 ~obj:1.0 () in
  Lp.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Ge 1.0;
  (p, [ x; y ])

let test_milp_complete_unbudgeted () =
  let p, binary = binary_cover_lp () in
  let r = Milp.solve ~binary p in
  Alcotest.(check bool) "optimal" true (r.Milp.status = `Optimal);
  Alcotest.(check (float 1e-6)) "objective" 1.0 r.Milp.objective;
  Alcotest.(check bool) "proved" true r.Milp.proved;
  Alcotest.(check bool) "not limited" true (r.Milp.limited = None)

let test_milp_keeps_incumbent_on_budget_trip () =
  let p, binary = binary_cover_lp () in
  let clock, set = fake_clock () in
  let budget = Budget.create ~clock ~deadline_s:0.5 () in
  set 1.0;
  let r = Milp.solve ~budget ~incumbent:([| 1.0; 1.0 |], 2.0) ~binary p in
  Alcotest.(check bool) "feasible incumbent" true (r.Milp.status = `Feasible);
  Alcotest.(check (float 1e-6)) "incumbent objective" 2.0 r.Milp.objective;
  Alcotest.(check bool) "not proved" false r.Milp.proved;
  Alcotest.(check bool) "deadline reason" true (is_deadline r.Milp.limited)

(* ---- anytime ISP and path enumeration ---- *)

let small_instance () =
  let g =
    Graph.make ~n:4
      ~edges:[ (0, 1, 10.0); (1, 2, 10.0); (2, 3, 10.0); (0, 3, 10.0) ]
      ()
  in
  let demands = [ Commodity.make ~src:0 ~dst:2 ~amount:5.0 ] in
  Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()

let test_isp_complete_unbudgeted () =
  let _, stats = Isp.solve (small_instance ()) in
  Alcotest.(check bool) "not limited" true (stats.Isp.limited = None)

let test_isp_partial_stays_feasible () =
  let inst = small_instance () in
  let clock, set = fake_clock () in
  let budget = Budget.create ~clock ~deadline_s:0.5 () in
  set 1.0;
  let sol, stats = Isp.solve ~budget inst in
  Alcotest.(check bool) "deadline reason" true (is_deadline stats.Isp.limited);
  Alcotest.(check bool) "fallback finished the demands" true
    (stats.Isp.fallback_paths >= 1);
  Alcotest.(check (float 1e-6)) "still feasible" 1.0
    (Evaluate.satisfied_fraction inst sol)

let test_path_enum_budget_truncates () =
  let inst = small_instance () in
  let clock, set = fake_clock () in
  let budget = Budget.create ~clock ~deadline_s:0.5 () in
  set 1.0;
  let r =
    H.Path_enum.enumerate ~budget inst.Instance.graph inst.Instance.demands
  in
  Alcotest.(check bool) "truncated" true r.H.Path_enum.truncated;
  Alcotest.(check bool) "deadline reason" true
    (is_deadline r.H.Path_enum.limited);
  let full =
    H.Path_enum.enumerate inst.Instance.graph inst.Instance.demands
  in
  Alcotest.(check bool) "unbudgeted finds paths" true
    (List.length full.H.Path_enum.paths > 0);
  Alcotest.(check bool) "unbudgeted untruncated" false full.H.Path_enum.truncated

(* ---- chain ---- *)

let work_reason = Budget.Work { spent = 1; cap = 1 }

let test_chain_provenance () =
  let stages =
    [ Chain.stage "empty" (fun _ -> None);
      Chain.stage "partial" (fun _ -> Some (Anytime.Partial (1, work_reason)));
      Chain.stage "crash" (fun _ -> failwith "boom");
      Chain.stage "full" (fun _ -> Some (Anytime.Complete 2)) ]
  in
  match Chain.run ~better:(fun a b -> a > b) stages with
  | None -> Alcotest.fail "chain returned nothing"
  | Some o ->
    Alcotest.(check int) "value" 2 o.Chain.value;
    Alcotest.(check string) "answered_by" "full" o.Chain.answered_by;
    Alcotest.(check bool) "complete" true o.Chain.complete;
    let verdicts =
      List.map
        (fun (a : Chain.attempt) ->
          ( a.Chain.stage,
            match a.Chain.verdict with
            | Chain.Answered -> "answered"
            | Chain.Degraded _ -> "degraded"
            | Chain.No_answer -> "no_answer"
            | Chain.Crashed _ -> "crashed" ))
        o.Chain.attempts
    in
    Alcotest.(check (list (pair string string)))
      "attempts in order"
      [ ("empty", "no_answer"); ("partial", "degraded"); ("crash", "crashed");
        ("full", "answered") ]
      verdicts

let test_chain_better_partial_beats_complete () =
  (* A degraded answer from a stronger stage outranks a later complete
     one when [better] says so. *)
  let stages =
    [ Chain.stage "strong" (fun _ -> Some (Anytime.Partial (9, work_reason)));
      Chain.stage "weak" (fun _ -> Some (Anytime.Complete 2)) ]
  in
  match Chain.run ~better:(fun a b -> a > b) stages with
  | None -> Alcotest.fail "chain returned nothing"
  | Some o ->
    Alcotest.(check int) "kept the partial" 9 o.Chain.value;
    Alcotest.(check string) "credited stage" "strong" o.Chain.answered_by;
    Alcotest.(check bool) "degraded outcome" false o.Chain.complete

let test_chain_best_partial_selected () =
  let stages =
    [ Chain.stage "low" (fun _ -> Some (Anytime.Partial (3, work_reason)));
      Chain.stage "high" (fun _ -> Some (Anytime.Partial (7, work_reason))) ]
  in
  match Chain.run ~better:(fun a b -> a > b) stages with
  | None -> Alcotest.fail "chain returned nothing"
  | Some o ->
    Alcotest.(check int) "best partial" 7 o.Chain.value;
    Alcotest.(check string) "its stage" "high" o.Chain.answered_by;
    Alcotest.(check bool) "not complete" false o.Chain.complete

let test_chain_all_fail () =
  let stages =
    [ Chain.stage "empty" (fun _ -> None);
      Chain.stage "crash" (fun _ -> failwith "boom") ]
  in
  Alcotest.(check bool) "no outcome" true (Chain.run stages = None)

let test_chain_stage_timing_fake_clock () =
  let clock, set = fake_clock () in
  let budget = Budget.create ~clock ~deadline_s:10.0 () in
  let stages =
    [ Chain.stage "slow" (fun _ ->
          set 2.0;
          Some (Anytime.Complete ())) ]
  in
  match Chain.run ~budget stages with
  | None -> Alcotest.fail "chain returned nothing"
  | Some o ->
    let a = List.hd o.Chain.attempts in
    Alcotest.(check (float 1e-9)) "seconds from the chain clock" 2.0
      a.Chain.seconds

let test_chain_stage_budget_slices () =
  (* Each stage sees a budget derived from the chain's, capped by its own
     deadline slice. *)
  let clock, _set = fake_clock () in
  let budget = Budget.create ~clock ~deadline_s:8.0 () in
  let seen = ref None in
  let stages =
    [ Chain.stage ~deadline_s:2.0 "sliced" (fun b ->
          seen := Budget.limit_s b;
          Some (Anytime.Complete ())) ]
  in
  ignore (Chain.run ~budget stages);
  match !seen with
  | Some l -> Alcotest.(check (float 1e-9)) "slice" 2.0 l
  | None -> Alcotest.fail "stage budget had no deadline"

(* ---- fallback chain over real solvers ---- *)

let test_fallback_unbudgeted_completes () =
  match H.Fallback.solve (small_instance ()) with
  | None -> Alcotest.fail "no answer"
  | Some o ->
    Alcotest.(check bool) "complete" true o.Chain.complete;
    Alcotest.(check (float 1e-6)) "feasible" 1.0
      (Evaluate.satisfied_fraction (small_instance ()) o.Chain.value)

let test_fallback_exhausted_budget_still_answers () =
  let inst = small_instance () in
  let clock, set = fake_clock () in
  let budget = Budget.create ~clock ~deadline_s:0.5 () in
  set 1.0;
  match H.Fallback.solve ~budget inst with
  | None -> Alcotest.fail "no answer"
  | Some o ->
    Alcotest.(check (float 1e-6)) "feasible despite dead budget" 1.0
      (Evaluate.satisfied_fraction inst o.Chain.value);
    Alcotest.(check int) "every stage tried"
      4 (List.length o.Chain.attempts)

(* ---- journal ---- *)

let with_tmp f =
  let path = Filename.temp_file "netrec_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let sample_cells =
  [ ("ISP", [ ("repairs_total", 23.0); ("seconds", 0.125) ]);
    ("SRT", [ ("repairs_total", 31.0); ("seconds", 0.5) ]) ]

let cells_t = Alcotest.(list (pair string (list (pair string (float 1e-12)))))

let test_journal_roundtrip () =
  with_tmp @@ fun path ->
  let j = Journal.create ~opt_nodes:60 path in
  Alcotest.(check bool) "nothing yet" true
    (Journal.completed j ~point:"p" ~run:1 = None);
  Journal.record j ~point:"p" ~run:1 sample_cells;
  (match Journal.completed j ~point:"p" ~run:1 with
  | Some cells -> Alcotest.check cells_t "in-memory replay" sample_cells cells
  | None -> Alcotest.fail "recorded pair not visible");
  Journal.close j;
  (* A fresh journal reloads the same cells from disk. *)
  let j2 = Journal.create ~opt_nodes:60 path in
  (match Journal.completed j2 ~point:"p" ~run:1 with
  | Some cells -> Alcotest.check cells_t "reloaded replay" sample_cells cells
  | None -> Alcotest.fail "pair lost across restart");
  Alcotest.(check bool) "other runs still absent" true
    (Journal.completed j2 ~point:"p" ~run:2 = None);
  Journal.close j2

(* %.17g writes non-finite values as nan, -nan, inf and -inf; a fresh
   journal must read every one back, a NaN's sign bit included (it
   decides whether a table prints nan or -nan). *)
let test_journal_non_finite () =
  with_tmp @@ fun path ->
  let payload =
    [ ("nan", Float.nan); ("minus_nan", -.Float.nan); ("inf", Float.infinity);
      ("minus_inf", Float.neg_infinity); ("one", 1.0) ]
  in
  let j = Journal.create ~opt_nodes:60 path in
  Journal.record j ~point:"p" ~run:1 [ ("ISP", payload) ];
  Journal.close j;
  let j2 = Journal.create ~opt_nodes:60 path in
  (match Journal.completed j2 ~point:"p" ~run:1 with
  | Some [ ("ISP", fields) ] ->
    Alcotest.(check (list string)) "every field reloaded" (List.map fst payload)
      (List.map fst fields);
    List.iter2
      (fun (k, v) (_, v') ->
        Alcotest.(check string) (k ^ " prints the same")
          (Printf.sprintf "%.17g" v) (Printf.sprintf "%.17g" v');
        Alcotest.(check bool) (k ^ " sign bit") (Float.sign_bit v)
          (Float.sign_bit v'))
      payload fields
  | _ -> Alcotest.fail "non-finite cells lost across restart");
  Journal.close j2

let test_journal_with_run_skips_completed () =
  with_tmp @@ fun path ->
  let j = Journal.create ~opt_nodes:60 path in
  let calls = ref 0 in
  let compute () =
    incr calls;
    sample_cells
  in
  let first = Journal.with_run (Some j) ~point:"p" ~run:1 compute in
  let second = Journal.with_run (Some j) ~point:"p" ~run:1 compute in
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.check cells_t "identical replay" first second;
  (* No journal: always compute. *)
  ignore (Journal.with_run None ~point:"p" ~run:1 compute);
  Alcotest.(check int) "no-journal computes" 2 !calls;
  Journal.close j

let test_journal_partial_pair_recomputed () =
  with_tmp @@ fun path ->
  (* Simulate a crash mid-pair: cells written, done marker missing, last
     line truncated. *)
  let oc = open_out path in
  output_string oc "netrec-journal/1\n";
  output_string oc "{\"type\":\"settings\",\"opt_nodes\":60}\n";
  output_string oc
    "{\"type\":\"cell\",\"point\":\"p\",\"run\":1,\"alg\":\"ISP\",\"repairs_total\":23}\n";
  output_string oc "{\"type\":\"cell\",\"point\":\"p\",\"run\":1,\"al";
  close_out oc;
  let j = Journal.create ~opt_nodes:60 path in
  Alcotest.(check bool) "partial pair not trusted" true
    (Journal.completed j ~point:"p" ~run:1 = None);
  let calls = ref 0 in
  ignore
    (Journal.with_run (Some j) ~point:"p" ~run:1 (fun () ->
         incr calls;
         sample_cells));
  Alcotest.(check int) "recomputed" 1 !calls;
  Journal.close j;
  (* After recomputation the pair is durable and deduped last-wins. *)
  let j2 = Journal.create ~opt_nodes:60 path in
  (match Journal.completed j2 ~point:"p" ~run:1 with
  | Some cells -> Alcotest.check cells_t "last write wins" sample_cells cells
  | None -> Alcotest.fail "recomputed pair lost");
  Journal.close j2

let test_journal_rejects_foreign_file () =
  with_tmp @@ fun path ->
  let oc = open_out path in
  output_string oc "not a journal\n";
  close_out oc;
  Alcotest.(check bool) "create fails" true
    (try
       ignore (Journal.create ~opt_nodes:60 path);
       false
     with Failure _ -> true)

(* ---- Breaker (fake clock: every timing transition is deterministic) ---- *)

module Breaker = Netrec_resilience.Breaker

let breaker_cfg =
  { Breaker.window = 8;
    min_samples = 4;
    failure_rate = 0.5;
    cooldown_s = 1.0;
    probe_slots = 2;
    probe_successes = 2 }

let check_state msg expected b =
  Alcotest.(check string) msg
    (Breaker.state_to_string expected)
    (Breaker.state_to_string (Breaker.state b))

let test_breaker_starts_closed () =
  let b = Breaker.create ~config:breaker_cfg () in
  check_state "fresh" Breaker.Closed b;
  Alcotest.(check bool) "allows" true (Breaker.allow b);
  Alcotest.(check bool) "allow consumes nothing closed" true (Breaker.allow b)

let test_breaker_trips_on_failure_rate () =
  let clock, _set = fake_clock () in
  let b = Breaker.create ~clock ~config:breaker_cfg () in
  (* Below min_samples nothing trips, even at 100% failures. *)
  Breaker.record_failure b;
  Breaker.record_failure b;
  Breaker.record_failure b;
  check_state "under min_samples" Breaker.Closed b;
  Breaker.record_failure b;
  check_state "tripped at threshold" Breaker.Open b;
  Alcotest.(check bool) "open sheds" false (Breaker.allow b)

let test_breaker_successes_hold_it_closed () =
  let clock, _set = fake_clock () in
  let b = Breaker.create ~clock ~config:breaker_cfg () in
  (* 8-wide window: 3 failures over 5 successes stays under 50%. *)
  for _ = 1 to 5 do
    Breaker.record_success b
  done;
  Breaker.record_failure b;
  Breaker.record_failure b;
  Breaker.record_failure b;
  check_state "mixed window" Breaker.Closed b;
  (* A 4th failure pushes the window to 4/8. *)
  Breaker.record_failure b;
  check_state "majority failures" Breaker.Open b

let test_breaker_cooldown_to_half_open () =
  let clock, set = fake_clock () in
  let b = Breaker.create ~clock ~config:breaker_cfg () in
  Breaker.trip b;
  check_state "open" Breaker.Open b;
  set 0.5;
  check_state "cooling" Breaker.Open b;
  Alcotest.(check bool) "still sheds" false (Breaker.allow b);
  set 1.5;
  check_state "half-open after cooldown" Breaker.Half_open b

let test_breaker_probe_slots_consumed () =
  let clock, set = fake_clock () in
  let b = Breaker.create ~clock ~config:breaker_cfg () in
  Breaker.trip b;
  set 1.5;
  Alcotest.(check bool) "probe 1 granted" true (Breaker.allow b);
  Alcotest.(check bool) "probe 2 granted" true (Breaker.allow b);
  Alcotest.(check bool) "slots exhausted" false (Breaker.allow b);
  check_state "still half-open while probes fly" Breaker.Half_open b

let test_breaker_probe_successes_close () =
  let clock, set = fake_clock () in
  let b = Breaker.create ~clock ~config:breaker_cfg () in
  Breaker.trip b;
  set 1.5;
  Alcotest.(check bool) "probe granted" true (Breaker.allow b);
  Breaker.record_success b;
  check_state "one success not enough" Breaker.Half_open b;
  Alcotest.(check bool) "second probe granted" true (Breaker.allow b);
  Breaker.record_success b;
  check_state "closed after probe quota" Breaker.Closed b;
  (* Closing cleared the window: one failure cannot re-trip. *)
  Breaker.record_failure b;
  check_state "fresh window" Breaker.Closed b

let test_breaker_probe_failure_reopens () =
  let clock, set = fake_clock () in
  let b = Breaker.create ~clock ~config:breaker_cfg () in
  Breaker.trip b;
  set 1.5;
  Alcotest.(check bool) "probe granted" true (Breaker.allow b);
  Breaker.record_failure b;
  check_state "reopened" Breaker.Open b;
  (* Fresh cooldown from the reopen instant, not the original trip. *)
  set 2.0;
  check_state "cooling again" Breaker.Open b;
  set 2.6;
  check_state "half-open again" Breaker.Half_open b

let test_breaker_trip_reset_and_counters () =
  let clock, set = fake_clock () in
  let transitions = ref [] in
  let b =
    Breaker.create ~clock ~config:breaker_cfg
      ~on_transition:(fun o n ->
        transitions :=
          (Breaker.state_to_string o, Breaker.state_to_string n) :: !transitions)
      ()
  in
  Breaker.trip b;
  set 1.5;
  check_state "half-open" Breaker.Half_open b;
  Breaker.reset b;
  check_state "reset closes" Breaker.Closed b;
  Breaker.trip b;
  let to_open, to_half, to_closed = Breaker.transition_counts b in
  Alcotest.(check int) "to_open" 2 to_open;
  Alcotest.(check int) "to_half" 1 to_half;
  Alcotest.(check int) "to_closed" 1 to_closed;
  Alcotest.(check (list (pair string string)))
    "on_transition saw every edge"
    [ ("closed", "open"); ("open", "half-open"); ("half-open", "closed");
      ("closed", "open") ]
    (List.rev !transitions)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netrec_resilience"
    [ ( "budget",
        [ tc "unlimited" test_budget_unlimited;
          tc "work cap latches" test_budget_work_cap_latches;
          tc "deadline fake clock" test_budget_deadline_fake_clock;
          tc "stage nesting" test_budget_stage_nesting ] );
      ( "anytime lp",
        [ tc "complete unbudgeted" test_lp_complete_unbudgeted;
          tc "partial on work cap" test_lp_partial_on_work_cap;
          tc "skips build when spent" test_lp_skips_build_when_spent;
          tc "milp complete" test_milp_complete_unbudgeted;
          tc "milp keeps incumbent" test_milp_keeps_incumbent_on_budget_trip ] );
      ( "anytime solvers",
        [ tc "isp complete" test_isp_complete_unbudgeted;
          tc "isp partial stays feasible" test_isp_partial_stays_feasible;
          tc "path enum truncates" test_path_enum_budget_truncates ] );
      ( "chain",
        [ tc "provenance" test_chain_provenance;
          tc "partial beats complete" test_chain_better_partial_beats_complete;
          tc "best partial selected" test_chain_best_partial_selected;
          tc "all fail" test_chain_all_fail;
          tc "fake clock timing" test_chain_stage_timing_fake_clock;
          tc "stage budget slices" test_chain_stage_budget_slices ] );
      ( "fallback",
        [ tc "unbudgeted completes" test_fallback_unbudgeted_completes;
          tc "exhausted budget answers"
            test_fallback_exhausted_budget_still_answers ] );
      ( "journal",
        [ tc "roundtrip" test_journal_roundtrip;
          tc "non-finite cells" test_journal_non_finite;
          tc "with_run skips" test_journal_with_run_skips_completed;
          tc "partial pair recomputed" test_journal_partial_pair_recomputed;
          tc "rejects foreign file" test_journal_rejects_foreign_file ] );
      ( "breaker",
        [ tc "starts closed" test_breaker_starts_closed;
          tc "trips on failure rate" test_breaker_trips_on_failure_rate;
          tc "successes hold it closed" test_breaker_successes_hold_it_closed;
          tc "cooldown to half-open" test_breaker_cooldown_to_half_open;
          tc "probe slots consumed" test_breaker_probe_slots_consumed;
          tc "probe successes close" test_breaker_probe_successes_close;
          tc "probe failure reopens" test_breaker_probe_failure_reopens;
          tc "trip/reset and counters" test_breaker_trip_reset_and_counters ] ) ]
