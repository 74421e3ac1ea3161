(* The benchmark's measurement rules. *)

open Perfbench

let close = Alcotest.float 1e-9

let samples n = Array.init n (fun i -> float_of_int (n - i))

let percentile_needs_ten_beyond () =
  let p90 n = Stats.percentile ~p:90 (samples n) in
  Alcotest.(check (option close)) "p90 of 99 samples" None (p90 99);
  Alcotest.(check (option close)) "p90 of 100 samples is the 90th" (Some 90.0) (p90 100);
  let p99 n = Stats.percentile ~p:99 (samples n) in
  Alcotest.(check (option close)) "p99 of 999 samples" None (p99 999);
  Alcotest.(check (option close)) "p99 of 1000 samples is the 990th" (Some 990.0) (p99 1000)

(* One connection, queries due every 0.1 s, each taking 0.25 s: the
   connection falls behind and every later query waits. *)
let latency_from_due_time () =
  let clock = ref 0.0 in
  let records =
    Loadgen.run
      ~now:(fun () -> !clock)
      ~sleep_until:(fun t -> clock := Float.max !clock t)
      ~send:(fun _ -> clock := !clock +. 0.25)
      (Loadgen.schedule ~start:0.0 ~rate:10.0 4)
  in
  let lat = Array.map Loadgen.latency records in
  let lag = Array.map Loadgen.lag records in
  Alcotest.(check (array close)) "latency counts the wait behind earlier queries"
    [| 0.25; 0.4; 0.55; 0.7 |] lat;
  Alcotest.(check (array close)) "lag is how late each query left"
    [| 0.0; 0.15; 0.3; 0.45 |] lag

let span ?(parent = 0) id start stop =
  { Spans.id; parent; name = "s"; index = 0; start; stop }

let self_time_subtracts_children () =
  let parent = span ~parent:(-1) 0 0.0 10.0 in
  (* Overlapping children count once; the part of a child outside its
     parent does not count. *)
  let children = [ span 1 1.0 3.0; span 2 2.0 5.0; span 3 8.0 9.0; span 4 9.5 11.0 ] in
  Alcotest.(check close) "self time" 4.5 (Spans.self_time ~children parent);
  let selfs = Spans.self_times (parent :: children) in
  Alcotest.(check close) "leaf self time is its duration" 3.0 (List.assoc 2 selfs)

let nested_spans_record_parents () =
  Spans.reset ();
  Spans.set_enabled true;
  Spans.with_span "outer" ~index:7 (fun () ->
      Spans.with_span "inner" ~index:7 (fun () -> ());
      Spans.with_span "inner" ~index:7 (fun () -> ()));
  Spans.set_enabled false;
  Spans.with_span "untraced" ~index:8 (fun () -> ());
  match Spans.spans () with
  | [ o; a; b ] ->
    Alcotest.(check int) "outer is a root" (-1) o.parent;
    Alcotest.(check (list int)) "inner spans hang off outer" [ o.id; o.id ] [ a.parent; b.parent ];
    Alcotest.(check (list int)) "indices kept" [ 7; 7; 7 ] [ o.index; a.index; b.index ]
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let () =
  Alcotest.run "perfbench"
    [ ( "rules",
        [ Alcotest.test_case "percentile needs ten samples beyond it" `Quick
            percentile_needs_ten_beyond;
          Alcotest.test_case "latency counts from the due time" `Quick
            latency_from_due_time;
          Alcotest.test_case "self time subtracts child spans" `Quick
            self_time_subtracts_children;
          Alcotest.test_case "nested spans record their parent" `Quick
            nested_spans_record_parents ] ) ]
