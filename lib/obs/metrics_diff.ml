(* Regression comparison and validation of BENCH_metrics.json documents.
   The engine behind `recover metrics diff`, `recover metrics validate`
   and check_perf.sh.  It reads deterministic numbers only: the gate
   blocks and the work histograms (p50/p90/p99) fail on drift beyond
   [gate_tolerance] in either direction, counters only print notes, and
   wall-clock (`_ms`) histograms are printed but never gated — timings
   are judged by perfbench's noise-bounded medians alone.  Workload-shaped
   sections (histograms, counters) only compare when both documents were
   produced by the same bench mode, since a quick run and a full run
   observe different work distributions.  Every gate requirement lives in
   one table below ([gates], [run_wide]); the diff and the validator are
   its only readers. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  (* Minimal recursive-descent parser: the full JSON grammar minus any
     streaming concerns — documents here are single-digit megabytes at
     most.  No external dependency so the obs layer stays leaf-level. *)
  let parse ?(non_finite = false) (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
      | Some v ->
        pos := !pos + 4;
        v
      | None -> fail "bad \\u escape"
    in
    let utf8_add buf cp =
      (* Encode a code point; lone surrogates degrade to U+FFFD. *)
      let cp = if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD else cp in
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape");
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> utf8_add buf (hex4 ())
          | _ -> fail "bad escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "malformed number"
    in
    (* The spellings %.17g prints for non-finite floats ("-nan" is a NaN
       with its sign bit set); numbers only in [non_finite] mode. *)
    let non_finite_word () =
      if not non_finite then None
      else
        List.find_opt
          (fun w ->
            let l = String.length w in
            !pos + l <= n && String.sub s !pos l = w)
          [ "nan"; "-nan"; "inf"; "-inf" ]
    in
    let rec parse_value () =
      skip_ws ();
      match non_finite_word () with
      | Some w ->
        pos := !pos + String.length w;
        Num (float_of_string w)
      | None -> (
        match peek () with
        | None -> fail "unexpected end of input"
        | Some '"' -> Str (parse_string ())
        | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                advance ();
                members ((k, v) :: acc)
              | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
        | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                advance ();
                elems (v :: acc)
              | Some ']' ->
                advance ();
                List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (elems [])
          end
        | Some 't' -> literal "true" (Bool true)
        | Some 'f' -> literal "false" (Bool false)
        | Some 'n' -> literal "null" Null
        | Some _ -> parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let obj_members = function Obj kvs -> kvs | _ -> []
  let arr_items = function Arr xs -> xs | _ -> []
  let number = function Num f -> Some f | _ -> None
  let string_val = function Str v -> Some v | _ -> None
end

(* Thresholds, as fractions. *)
let gate_tolerance = 0.10  (* gate-block drift keys and work quantiles *)
let note_tolerance = 0.25  (* counters: drift beyond this is only noted *)

type report = { lines : string list; regressions : string list }

let pct d = 100.0 *. d

(* ---- section helpers ---- *)

type ctx = {
  mutable out : string list;  (* reversed *)
  mutable regs : string list;  (* reversed *)
}

let line ctx fmt = Printf.ksprintf (fun s -> ctx.out <- s :: ctx.out) fmt

let regress ctx fmt =
  Printf.ksprintf
    (fun s ->
      ctx.regs <- s :: ctx.regs;
      ctx.out <- ("  FAIL " ^ s) :: ctx.out)
    fmt

(* ---- the gate table ---- *)

let schema = "netrec-bench-metrics/5"

type bound =
  | Present
  | Positive
  | Eq of float
  | At_most of float
  | At_least of float

type gate = {
  block : string;
  invariants : (string * bound) list;
  drift : string list;
  live : string list;
  present : string list;
}

(* Run-wide rules on the [metrics] snapshot. *)
type rule =
  | Counter of string * bound
  | Gauge of string * string  (* gauge, field that must be > 0 *)
  | Histogram of string  (* count > 0 and every [histogram_keys] *)
  | Progress of string  (* events of this name were recorded *)

let gates =
  [ (* One full OPT solve of the pinned Gaussian Bell-Canada scenario:
       it proves within the ratcheted work ceilings (half the
       pre-acceleration pivots, fewer than 71 nodes); the exact-solver
       accelerations (DESIGN.md 18) must actually run, the rest only be
       materialised (they legitimately hit 0). *)
    { block = "lp_gate";
      invariants =
        [ ("opt.proved", Eq 1.0); ("simplex.pivots", At_most 8310.0);
          ("milp.nodes", At_most 70.0) ];
      drift = [ "simplex.pivots"; "milp.nodes" ];
      live =
        [ "simplex.pivots"; "simplex.solves"; "simplex.warm_starts";
          "milp.nodes"; "simplex.dse_pivots"; "presolve.runs";
          "presolve.vars_fixed"; "cuts.separated"; "cuts.added";
          "cuts.root_solves" ];
      present =
        [ "presolve.rows_dropped"; "presolve.bounds_tightened";
          "presolve.coefs_tightened"; "simplex.dse_resets"; "cuts.rejected";
          "cuts.aged_out" ] };
    (* The sharded solver on the pinned 5k scale-free scenario: it must
       take the sharded path (several shards, no delegation) and its
       stitched solution must certify; its hop searches must stay local
       (bidir.scanned, about 1.5x the measured 31012; a one-sided search
       scans ~309k here). *)
    { block = "xl_gate";
      invariants =
        [ ("xl.certified", Eq 1.0); ("check.violations", Eq 0.0);
          ("isp.shard_count", At_least 2.0); ("isp.shard_delegated", Eq 0.0);
          ("bidir.scanned", At_most 46500.0) ];
      drift = [ "isp.shard_count"; "xl.repairs_total"; "bidir.scanned" ];
      live = [];
      present = [] };
    (* Greedy, local search and the MILP oracle on the pinned scheduling
       scenario: the oracle proves, every round prefix certifies, and the
       regret of greedy + local search stays within 5% (AUC microunits). *)
    { block = "sched_gate";
      invariants =
        [ ("sched.oracle_proved", Eq 1.0); ("sched.certified", Eq 1.0);
          ("sched.regret_microunits", At_most 50_000.0) ];
      drift =
        [ "sched.plan_rounds"; "sched.greedy_auc_microunits";
          "sched.ls_auc_microunits"; "sched.oracle_auc_microunits" ];
      live =
        [ "sched.plans"; "sched.rounds"; "sched.evals"; "sched.oracle_solves";
          "sched.oracle_nodes"; "sched.plan_rounds" ];
      present = [] };
    (* One pinned solve per figure-family case nothing else covers, each
       with its repair count and the work counter behind its cost; on
       CAIDA's complete destruction the sharded solver must delegate to
       ISP, and the exact routability LP must find the demands
       routable. *)
    (let work =
       [ "mcb.repairs_total"; "mcb.pivots"; "mcf_lp.pivots";
         "grd_com.repairs_total"; "grd_com.paths"; "srt.repairs_total";
         "srt.settled"; "isp_er.repairs_total"; "isp_er.iterations";
         "isp_er.settled"; "forest.optimum"; "forest.tree_solves";
         "shard_caida.repairs_total"; "shard_caida.iterations" ]
     in
     { block = "work_gate";
       invariants =
         [ ("shard_caida.delegated", Eq 1.0); ("mcf_lp.routable", Eq 1.0) ];
       drift = work;
       live = work;
       present = [] }) ]

(* Run-wide snapshot requirements for every bench mode.  The xl and
   sched gates run in every mode, so their counters are live too;
   moves_applied and the fixup/delegation/skip counters are materialised
   at 0 and may stay there. *)
let run_wide =
  List.map
    (fun k -> Counter (k, Positive))
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
  @ List.map
      (fun k -> Counter (k, Present))
      [ "centrality.cache_misses"; "isp.shard_fixup_paths";
        "isp.shard_delegated"; "centrality.sampled_skipped";
        "sched.moves_applied" ]
  @ [ Gauge ("parallel.cells_per_domain", "samples");
      Gauge ("parallel.cells_per_domain", "max") ]
  @ List.map
      (fun k -> Histogram k)
      [ "isp.iteration_ms"; "isp.solve_ms"; "shard.solve_ms";
        "simplex.pivots_per_solve"; "milp.nodes_per_solve";
        "dijkstra.settled_per_call"; "parallel.batch_cells";
        "sched.round_satisfaction" ]
  @ [ Progress "isp.residual" ]

let histogram_keys = [ "min"; "max"; "p50"; "p90"; "p99" ]

let holds bound v =
  match bound with
  | Present -> true
  | Positive -> v > 0.0
  | Eq x -> v = x
  | At_most x -> v <= x
  | At_least x -> v >= x

let bound_to_string = function
  | Present -> "present"
  | Positive -> "> 0"
  | Eq x -> Printf.sprintf "= %g" x
  | At_most x -> Printf.sprintf "<= %g" x
  | At_least x -> Printf.sprintf ">= %g" x

let num key doc = Option.bind (Json.member key doc) Json.number

(* [None] when [key] of [doc] satisfies [bound]; otherwise a message
   naming [where] and [key]. *)
let check where doc (key, bound) =
  match num key doc with
  | None -> Some (Printf.sprintf "%s %s: missing" where key)
  | Some v when holds bound v -> None
  | Some v ->
    Some
      (Printf.sprintf "%s %s: %g, must be %s" where key v
         (bound_to_string bound))

(* Everything a block must carry: every invariant and live bound (a key
   can have both, e.g. a work counter that is live and under a ceiling),
   then presence of each remaining drift and present key. *)
let requirements g =
  List.fold_left
    (fun acc k -> if List.mem_assoc k acc then acc else acc @ [ (k, Present) ])
    (g.invariants @ List.map (fun k -> (k, Positive)) g.live)
    (g.drift @ g.present)

(* A key missing under two bounds is reported once. *)
let block_failures g block =
  List.fold_left
    (fun acc req ->
      match check g.block block req with
      | Some m when not (List.mem m acc) -> m :: acc
      | Some _ | None -> acc)
    [] (requirements g)
  |> List.rev

(* Relative drift of a deterministic number, either direction; a
   baseline 0 that turns nonzero drifts infinitely. *)
let drift bv cv =
  if bv <> 0.0 then (cv -. bv) /. Float.abs bv
  else if cv = 0.0 then 0.0
  else infinity

(* One section per gate block.  Hard invariants are checked on the
   current run whatever the baseline says; drift keys are deterministic
   integers gated on [gate_tolerance] in either direction; any baseline
   key missing from the current block is a regression. *)
let section_gate ctx ~base ~current g =
  match (Json.member g.block base, Json.member g.block current) with
  | None, _ -> line ctx "%s: no baseline section, skipped" g.block
  | Some _, None -> regress ctx "%s: section missing from current run" g.block
  | Some b, Some c ->
    line ctx "%s (deterministic counters, tolerance %.0f%%):" g.block
      (pct gate_tolerance);
    List.iter
      (fun inv -> Option.iter (regress ctx "%s") (check g.block c inv))
      g.invariants;
    List.iter
      (fun (name, bv) ->
        match (Json.number bv, num name c) with
        | None, _ -> ()
        | Some _, None ->
          if not (List.mem_assoc name g.invariants) then
            regress ctx "%s %s: missing from current" g.block name
        | Some bv, Some cv ->
          let rel = drift bv cv in
          if List.mem name g.drift && Float.abs rel > gate_tolerance then
            regress ctx "%s %s: %.0f -> %.0f (%+.1f%% drift > %.0f%%)" g.block
              name bv cv (pct rel) (pct gate_tolerance)
          else
            line ctx "  ok   %-32s %10.0f -> %10.0f (%+.1f%%)" name bv cv
              (pct rel))
      (Json.obj_members b)

let quantile_keys = [ "p50"; "p90"; "p99" ]

(* Work histograms are deterministic and gated like the drift keys;
   wall-clock ones (names ending in _ms) are printed, never gated. *)
let section_histograms ctx ~base ~current ~modes_match =
  let b =
    Option.bind (Json.member "metrics" base) (Json.member "histograms")
  and c =
    Option.bind (Json.member "metrics" current) (Json.member "histograms")
  in
  match (b, c) with
  | None, _ -> line ctx "histograms: no baseline section, skipped"
  | Some _, None when modes_match ->
    regress ctx "histograms: section missing from current run"
  | Some _, None -> line ctx "histograms: missing from current run, skipped"
  | Some _, Some _ when not modes_match ->
    line ctx
      "histograms: bench modes differ, quantiles not comparable, skipped"
  | Some b, Some c ->
    line ctx "histograms (work quantiles, tolerance %.0f%%; _ms not gated):"
      (pct gate_tolerance);
    List.iter
      (fun (name, bh) ->
        match Json.member name c with
        | None -> line ctx "  note histogram %s missing from current" name
        | Some ch ->
          let is_wall =
            let l = String.length name in
            l >= 3 && String.sub name (l - 3) 3 = "_ms"
          in
          List.iter
            (fun q ->
              match (num q bh, num q ch) with
              | None, _ -> ()
              | Some _, None ->
                regress ctx "histogram %s: quantile %s missing from current"
                  name q
              | Some bv, Some cv ->
                let rel = drift bv cv in
                if (not is_wall) && Float.abs rel > gate_tolerance then
                  regress ctx "histogram %s %s: %g -> %g (%+.1f%% drift > %.0f%%)"
                    name q bv cv (pct rel) (pct gate_tolerance)
                else
                  line ctx "  %s %-38s %4s %12g -> %12g (%+.1f%%)"
                    (if is_wall then "time" else "ok  ")
                    name q bv cv (pct rel))
            quantile_keys)
      (Json.obj_members b)

let section_counters ctx ~base ~current ~modes_match =
  let b = Option.bind (Json.member "metrics" base) (Json.member "counters")
  and c =
    Option.bind (Json.member "metrics" current) (Json.member "counters")
  in
  match (b, c) with
  | Some b, Some c when modes_match ->
    let drifted = ref 0 in
    List.iter
      (fun (name, bv) ->
        match
          (Json.number bv, Option.bind (Json.member name c) Json.number)
        with
        | Some bv, Some cv when bv <> 0.0 ->
          let rel = (cv -. bv) /. Float.abs bv in
          if Float.abs rel > note_tolerance then begin
            incr drifted;
            line ctx "  note counter %s: %.0f -> %.0f (%+.1f%%)" name bv cv
              (pct rel)
          end
        | _ -> ())
      (Json.obj_members b);
    if !drifted = 0 then
      line ctx "counters: no drift beyond %.0f%%" (pct note_tolerance)
  | _ -> line ctx "counters: not comparable, skipped"

let mode doc =
  Option.value ~default:""
    (Option.bind (Json.member "mode" doc) Json.string_val)

let diff ~base ~current =
  let ctx = { out = []; regs = [] } in
  let modes_match = mode base = mode current && mode base <> "" in
  (match
     ( Option.bind (Json.member "schema" base) Json.string_val,
       Option.bind (Json.member "schema" current) Json.string_val )
   with
  | Some sb, Some sc ->
    line ctx "schema: %s vs %s%s" sb sc
      (if modes_match then Printf.sprintf " (mode %s)" (mode base)
       else
         Printf.sprintf " (modes %S vs %S: workload-shaped sections skipped)"
           (mode base) (mode current))
  | _ -> line ctx "schema: missing field in one document");
  List.iter (section_gate ctx ~base ~current) gates;
  section_histograms ctx ~base ~current ~modes_match;
  section_counters ctx ~base ~current ~modes_match;
  { lines = List.rev ctx.out; regressions = List.rev ctx.regs }

(* ---- validation of one document against the table ---- *)

let field name doc = Option.value ~default:Json.Null (Json.member name doc)

let rule_failures metrics = function
  | Counter (k, b) ->
    Option.to_list (check "counter" (field "counters" metrics) (k, b))
  | Gauge (k, f) ->
    Option.to_list
      (check ("gauge " ^ k) (field k (field "gauges" metrics)) (f, Positive))
  | Histogram k -> (
    match Json.member k (field "histograms" metrics) with
    | None -> [ Printf.sprintf "histogram %s: missing" k ]
    | Some h ->
      List.filter_map
        (check ("histogram " ^ k) h)
        (("count", Positive)
        :: List.map (fun q -> (q, Present)) histogram_keys))
  | Progress k ->
    let by_name = field "by_name" (field "progress" metrics) in
    Option.to_list (check "progress" by_name (k, Positive))

let validate doc =
  let ctx = { out = []; regs = [] } in
  let fail_all = List.iter (regress ctx "%s") in
  (match Option.bind (Json.member "schema" doc) Json.string_val with
  | Some s when s = schema -> line ctx "schema: %s (mode %S)" s (mode doc)
  | Some s -> regress ctx "schema: %S, must be %S" s schema
  | None -> regress ctx "schema: missing");
  List.iter
    (fun g ->
      match Json.member g.block doc with
      | None -> regress ctx "%s: block missing" g.block
      | Some c -> (
        match block_failures g c with
        | [] ->
          line ctx "%s: %d requirement(s) hold" g.block
            (List.length (requirements g))
        | errs -> fail_all errs))
    gates;
  let metrics = field "metrics" doc in
  (match List.concat_map (rule_failures metrics) run_wide with
  | [] ->
    line ctx "metrics: %d run-wide requirement(s) hold" (List.length run_wide)
  | errs -> fail_all errs);
  { lines = List.rev ctx.out; regressions = List.rev ctx.regs }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* An unreadable or unparsable file is a structured error, never an
   exception. *)
let load label path =
  match Json.parse (read_file path) with
  | v -> Ok v
  | exception Json.Parse_error msg ->
    Error (Printf.sprintf "%s %s: invalid JSON (%s)" label path msg)
  | exception Sys_error msg -> Error (Printf.sprintf "%s %s: %s" label path msg)
  | exception End_of_file ->
    Error (Printf.sprintf "%s %s: truncated read" label path)

let failed errs = { lines = errs; regressions = errs }

let diff_files ~base ~current =
  match (load "baseline" base, load "current" current) with
  | Ok b, Ok c -> diff ~base:b ~current:c
  | Error e, Ok _ | Ok _, Error e -> failed [ e ]
  | Error e1, Error e2 -> failed [ e1; e2 ]

let validate_file path =
  match load "metrics" path with
  | Ok doc -> validate doc
  | Error e -> failed [ e ]

let report_to_string r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    r.lines;
  (match r.regressions with
  | [] -> Buffer.add_string buf "\nresult: OK, no regressions\n"
  | regs ->
    Buffer.add_string buf
      (Printf.sprintf "\nresult: %d regression(s)\n" (List.length regs));
    List.iter
      (fun s -> Buffer.add_string buf (Printf.sprintf "  - %s\n" s))
      regs);
  Buffer.contents buf
