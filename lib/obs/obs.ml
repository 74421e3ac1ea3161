module Table = Netrec_util.Table

(* Telemetry state is per-domain: every domain that records anything gets
   its own tables (reached through [Domain.DLS], so the hot entry points
   never take a lock), and a mutex-guarded registry keeps every state
   ever created so readers can merge across domains.  Readers are meant
   for quiescent moments — after worker domains have been joined — and
   the summaries they produce are deterministic because merging sums
   per-name aggregates (histogram bucket counts included: integer sums
   are commutative, so the merge is independent of domain order and of
   how work was fanned out).  The disabled-mode cost stays one atomic
   load and one branch. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let now () = Unix.gettimeofday ()

(* ---- log-bucketed histograms (pure core) ---- *)

module Histogram = struct
  (* Base-2 log bucketing with [sub_buckets] equal-width sub-buckets per
     octave: a value v = m * 2^e (m in [0.5, 1), via [Float.frexp], which
     is exact) lands in sub-bucket floor((m - 0.5) * 2 * sub_buckets).
     Relative bucket width is 1/sub_buckets (12.5%), enough to gate 10%
     quantile regressions at the diff level where the exported quantile
     values themselves are compared.  Bucket edges are dyadic rationals,
     so quantiles are reproduced bit-for-bit by any run observing the
     same multiset of values — the determinism contract the [-j N]
     experiment fan-out relies on. *)

  let sub_buckets = 8
  let e_min = -24
  let e_max = 40
  let n_buckets = 1 + ((e_max - e_min) * sub_buckets)

  type t = {
    mutable count : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
    buckets : int array;  (* 0 = underflow (v <= 0 or tiny) *)
  }

  let create () =
    { count = 0;
      sum = 0.0;
      vmin = infinity;
      vmax = neg_infinity;
      buckets = Array.make n_buckets 0 }

  let bucket_index v =
    if not (v > 0.0) then 0 (* non-positive and nan: underflow bucket *)
    else begin
      let m, e = Float.frexp v in
      if e < e_min then 0
      else if e >= e_max then n_buckets - 1
      else begin
        let sub =
          int_of_float ((m -. 0.5) *. 2.0 *. float_of_int sub_buckets)
        in
        let sub =
          if sub < 0 then 0
          else if sub >= sub_buckets then sub_buckets - 1
          else sub
        in
        1 + ((e - e_min) * sub_buckets) + sub
      end
    end

  (* Upper edge of bucket [i]; quantiles report this value (clamped to
     the observed maximum), so a reported quantile overestimates the true
     one by at most one bucket width. *)
  let bucket_upper i =
    if i <= 0 then 0.0
    else begin
      let i = i - 1 in
      let e = e_min + (i / sub_buckets) and sub = i mod sub_buckets in
      Float.ldexp
        (0.5 +. (float_of_int (sub + 1) /. float_of_int (2 * sub_buckets)))
        e
    end

  let observe h v =
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v;
    let i = bucket_index v in
    h.buckets.(i) <- h.buckets.(i) + 1

  let count h = h.count
  let sum h = h.sum
  let min_value h = if h.count = 0 then nan else h.vmin
  let max_value h = if h.count = 0 then nan else h.vmax

  let merge_into ~into h =
    into.count <- into.count + h.count;
    into.sum <- into.sum +. h.sum;
    if h.vmin < into.vmin then into.vmin <- h.vmin;
    if h.vmax > into.vmax then into.vmax <- h.vmax;
    Array.iteri
      (fun i n -> if n <> 0 then into.buckets.(i) <- into.buckets.(i) + n)
      h.buckets

  let copy h =
    let t = create () in
    merge_into ~into:t h;
    t

  let merge a b =
    let t = copy a in
    merge_into ~into:t b;
    t

  let quantile h q =
    if h.count = 0 then nan
    else if q >= 1.0 then h.vmax
    else begin
      let q = if q < 0.0 then 0.0 else q in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
      let acc = ref 0 in
      let res = ref h.vmax in
      (try
         for i = 0 to n_buckets - 1 do
           acc := !acc + h.buckets.(i);
           if !acc >= rank then begin
             let u = bucket_upper i in
             res := (if u > h.vmax then h.vmax else u);
             raise Exit
           end
         done
       with Exit -> ());
      !res
    end

  let nonzero_buckets h =
    let acc = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.buckets.(i) <> 0 then acc := (i, h.buckets.(i)) :: !acc
    done;
    !acc

  (* [sum] is compared exactly: for integral observations (work counts,
     the deterministic case) float addition is exact and commutative, so
     equal multisets give equal sums regardless of merge order. *)
  let equal a b =
    a.count = b.count && a.sum = b.sum
    && (a.count = 0 || (a.vmin = b.vmin && a.vmax = b.vmax))
    && a.buckets = b.buckets
end

type counter = { mutable n : int }

type gauge_stat = { last : float; min : float; max : float; samples : int }

type gauge_cell = {
  mutable last : float;
  mutable lo : float;
  mutable hi : float;
  mutable samples : int;
  mutable seq : int;  (* global update order: disambiguates [last] *)
}

type span_stat = {
  path : string;
  calls : int;
  total_s : float;
  self_s : float;
  minor_words : float;
  major_words : float;
  compactions : int;
}

type agg = {
  mutable calls : int;
  mutable total : float;
  mutable self : float;
  mutable g_minor : float;
  mutable g_major : float;
  mutable g_comp : int;
}

type frame = {
  path : string;
  t0 : float;
  mutable child : float;
  f_minor : float;  (* Gc.quick_stat at open: span deltas on close *)
  f_major : float;
  f_comp : int;
}

type event = { epath : string; ets : float; edur : float; etid : int }

type progress_event = {
  name : string;
  t_s : float;
  dom : int;
  seq : int;
  fields : (string * float) list;
}

let event_ring_capacity = 8192

let dummy_pevent = { name = ""; t_s = 0.0; dom = 0; seq = -1; fields = [] }

type state = {
  dom : int;  (* domain id at creation; Chrome-trace tid *)
  counters_tbl : (string, counter) Hashtbl.t;
  gauges_tbl : (string, gauge_cell) Hashtbl.t;
  spans_tbl : (string, agg) Hashtbl.t;
  hists_tbl : (string, Histogram.t) Hashtbl.t;
  mutable stack : frame list;
  mutable events : event list;
  mutable n_events : int;
  mutable dropped : int;
  ring : progress_event array;  (* structured progress events *)
  mutable ring_n : int;  (* total ever written; ring overwrites oldest *)
}

let registry_mu = Mutex.create ()
let registry : state list ref = ref []
let epoch = Atomic.make (now ())

(* One global sequence stamps gauge updates AND progress events, giving a
   total record order across domains. *)
let global_seq = Atomic.make 0

let state_key =
  Domain.DLS.new_key (fun () ->
      let st =
        { dom = (Domain.self () :> int);
          counters_tbl = Hashtbl.create 64;
          gauges_tbl = Hashtbl.create 32;
          spans_tbl = Hashtbl.create 64;
          hists_tbl = Hashtbl.create 32;
          stack = [];
          events = [];
          n_events = 0;
          dropped = 0;
          ring = Array.make event_ring_capacity dummy_pevent;
          ring_n = 0 }
      in
      Mutex.lock registry_mu;
      registry := !registry @ [ st ];
      Mutex.unlock registry_mu;
      st)

let state () = Domain.DLS.get state_key

(* Snapshot the registry for a merged read. *)
let states () =
  Mutex.lock registry_mu;
  let s = !registry in
  Mutex.unlock registry_mu;
  s

(* ---- counters ---- *)

let count ?(n = 1) name =
  if Atomic.get enabled_flag then begin
    let st = state () in
    match Hashtbl.find_opt st.counters_tbl name with
    | Some c -> c.n <- c.n + n
    | None -> Hashtbl.replace st.counters_tbl name { n }
  end

let counters () =
  let merged : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun name c ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt merged name) in
          Hashtbl.replace merged name (cur + c.n))
        st.counters_tbl)
    (states ());
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) merged []
  |> List.sort compare

let own_count st name =
  match Hashtbl.find_opt st.counters_tbl name with Some c -> c.n | None -> 0

let counter_value name =
  List.fold_left (fun acc st -> acc + own_count st name) 0 (states ())

(* Disabled, nothing is being counted, so 0 keeps deltas exact without
   creating (and registering) per-domain state for short-lived pool
   domains. *)
let domain_counter_value name =
  if Atomic.get enabled_flag then own_count (state ()) name else 0

(* ---- gauges ---- *)

let gauge name v =
  if Atomic.get enabled_flag then begin
    let st = state () in
    let seq = Atomic.fetch_and_add global_seq 1 in
    match Hashtbl.find_opt st.gauges_tbl name with
    | Some g ->
      g.last <- v;
      if v < g.lo then g.lo <- v;
      if v > g.hi then g.hi <- v;
      g.samples <- g.samples + 1;
      g.seq <- seq
    | None ->
      Hashtbl.replace st.gauges_tbl name
        { last = v; lo = v; hi = v; samples = 1; seq }
  end

let gauges () =
  let merged : (string, gauge_cell) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun name (g : gauge_cell) ->
          match Hashtbl.find_opt merged name with
          | None ->
            Hashtbl.replace merged name
              { last = g.last; lo = g.lo; hi = g.hi; samples = g.samples;
                seq = g.seq }
          | Some m ->
            if g.seq > m.seq then begin
              m.last <- g.last;
              m.seq <- g.seq
            end;
            if g.lo < m.lo then m.lo <- g.lo;
            if g.hi > m.hi then m.hi <- g.hi;
            m.samples <- m.samples + g.samples)
        st.gauges_tbl)
    (states ());
  Hashtbl.fold
    (fun name (g : gauge_cell) acc ->
      (name, { last = g.last; min = g.lo; max = g.hi; samples = g.samples })
      :: acc)
    merged []
  |> List.sort compare

(* ---- histograms ---- *)

let observe name v =
  if Atomic.get enabled_flag then begin
    let st = state () in
    match Hashtbl.find_opt st.hists_tbl name with
    | Some h -> Histogram.observe h v
    | None ->
      let h = Histogram.create () in
      Histogram.observe h v;
      Hashtbl.replace st.hists_tbl name h
  end

let histogram_merged name =
  List.fold_left
    (fun acc st ->
      match Hashtbl.find_opt st.hists_tbl name with
      | None -> acc
      | Some h -> (
        match acc with
        | None -> Some (Histogram.copy h)
        | Some t ->
          Histogram.merge_into ~into:t h;
          acc))
    None (states ())

type hist_stat = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let hist_stat_of h =
  { count = Histogram.count h;
    sum = Histogram.sum h;
    min = Histogram.min_value h;
    max = Histogram.max_value h;
    p50 = Histogram.quantile h 0.5;
    p90 = Histogram.quantile h 0.9;
    p99 = Histogram.quantile h 0.99 }

let histogram name = Option.map hist_stat_of (histogram_merged name)

let histograms () =
  let names : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun st ->
      Hashtbl.iter (fun name _ -> Hashtbl.replace names name ()) st.hists_tbl)
    (states ());
  Hashtbl.fold (fun name () acc -> name :: acc) names []
  |> List.sort compare
  |> List.filter_map (fun name ->
         Option.map (fun h -> (name, hist_stat_of h)) (histogram_merged name))

(* ---- progress events ---- *)

let event name fields =
  if Atomic.get enabled_flag then begin
    let st = state () in
    let seq = Atomic.fetch_and_add global_seq 1 in
    let ev =
      { name;
        t_s = now () -. Atomic.get epoch;
        dom = st.dom;
        seq;
        fields }
    in
    st.ring.(st.ring_n mod event_ring_capacity) <- ev;
    st.ring_n <- st.ring_n + 1
  end

let progress_dropped () =
  List.fold_left
    (fun acc st -> acc + max 0 (st.ring_n - event_ring_capacity))
    0 (states ())

let events () =
  List.concat_map
    (fun st ->
      let n = min st.ring_n event_ring_capacity in
      List.init n (fun i -> st.ring.(i)))
    (states ())
  |> List.sort (fun a b -> compare a.seq b.seq)

(* ---- GC snapshots ---- *)

type gc_snapshot = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  gc_compactions : int;
  heap_words : int;
}

let gc_snapshot () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    gc_compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words }

let gc_delta a b =
  { minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
    gc_compactions = b.gc_compactions - a.gc_compactions;
    heap_words = b.heap_words }

(* ---- spans ---- *)

(* Individual intervals feed the Chrome-trace export only; aggregates in
   [spans_tbl] are never dropped.  The cap bounds memory on long runs
   (e.g. full bench sweeps). *)
let max_events = 1_000_000

let events_dropped () =
  List.fold_left (fun acc st -> acc + st.dropped) 0 (states ())

let record_event st path t0 dur =
  if st.n_events < max_events then begin
    st.events <-
      { epath = path; ets = t0 -. Atomic.get epoch; edur = dur; etid = st.dom }
      :: st.events;
    st.n_events <- st.n_events + 1
  end
  else st.dropped <- st.dropped + 1

(* Shared body of [span] and [timed] in enabled mode.  The span stack is
   part of the per-domain state, so nesting paths never interleave
   across domains.  GC counters are sampled at open and close
   ([Gc.quick_stat]: cheap, no heap walk); the per-path aggregate
   accumulates the deltas.  Unlike wall time, GC deltas are attributed
   inclusively — a parent span's words include its children's. *)
let span_enabled name f =
  let st = state () in
  let parent = match st.stack with [] -> None | fr :: _ -> Some fr in
  let path =
    match parent with None -> name | Some fr -> fr.path ^ "/" ^ name
  in
  let g0 = Gc.quick_stat () in
  let fr =
    { path;
      t0 = now ();
      child = 0.0;
      f_minor = g0.Gc.minor_words;
      f_major = g0.Gc.major_words;
      f_comp = g0.Gc.compactions }
  in
  st.stack <- fr :: st.stack;
  let finish () =
    let dur = now () -. fr.t0 in
    let g1 = Gc.quick_stat () in
    let d_minor = g1.Gc.minor_words -. fr.f_minor in
    let d_major = g1.Gc.major_words -. fr.f_major in
    let d_comp = g1.Gc.compactions - fr.f_comp in
    (match st.stack with _ :: rest -> st.stack <- rest | [] -> ());
    (match parent with Some p -> p.child <- p.child +. dur | None -> ());
    (match Hashtbl.find_opt st.spans_tbl path with
    | Some a ->
      a.calls <- a.calls + 1;
      a.total <- a.total +. dur;
      a.self <- a.self +. (dur -. fr.child);
      a.g_minor <- a.g_minor +. d_minor;
      a.g_major <- a.g_major +. d_major;
      a.g_comp <- a.g_comp + d_comp
    | None ->
      Hashtbl.replace st.spans_tbl path
        { calls = 1;
          total = dur;
          self = dur -. fr.child;
          g_minor = d_minor;
          g_major = d_major;
          g_comp = d_comp });
    record_event st path fr.t0 dur;
    dur
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let span name f =
  if not (Atomic.get enabled_flag) then f () else fst (span_enabled name f)

let timed name f =
  if not (Atomic.get enabled_flag) then begin
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  end
  else span_enabled name f

(* Sorted by path so exports are byte-stable between runs and two
   exports can be aligned positionally (metrics diffs); display-oriented
   callers re-sort by time. *)
let span_stats () =
  let merged : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun path a ->
          match Hashtbl.find_opt merged path with
          | Some m ->
            m.calls <- m.calls + a.calls;
            m.total <- m.total +. a.total;
            m.self <- m.self +. a.self;
            m.g_minor <- m.g_minor +. a.g_minor;
            m.g_major <- m.g_major +. a.g_major;
            m.g_comp <- m.g_comp + a.g_comp
          | None ->
            Hashtbl.replace merged path
              { calls = a.calls;
                total = a.total;
                self = a.self;
                g_minor = a.g_minor;
                g_major = a.g_major;
                g_comp = a.g_comp })
        st.spans_tbl)
    (states ());
  Hashtbl.fold
    (fun path a acc ->
      ({ path;
         calls = a.calls;
         total_s = a.total;
         self_s = a.self;
         minor_words = a.g_minor;
         major_words = a.g_major;
         compactions = a.g_comp }
        : span_stat)
      :: acc)
    merged []
  |> List.sort (fun (a : span_stat) (b : span_stat) -> compare a.path b.path)

let reset () =
  List.iter
    (fun st ->
      Hashtbl.reset st.counters_tbl;
      Hashtbl.reset st.gauges_tbl;
      Hashtbl.reset st.spans_tbl;
      Hashtbl.reset st.hists_tbl;
      st.stack <- [];
      st.events <- [];
      st.n_events <- 0;
      st.dropped <- 0;
      st.ring_n <- 0)
    (states ());
  Atomic.set epoch (now ())

(* ---- exporters ---- *)

let leaf path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON floats: %.9g never yields inf/nan here (all inputs are finite
   durations/samples) and stays a valid JSON number. *)
let json_float v = Printf.sprintf "%.9g" v

let hist_json (h : hist_stat) =
  Printf.sprintf
    "{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s}"
    h.count (json_float h.sum) (json_float h.min) (json_float h.max)
    (json_float h.p50) (json_float h.p90) (json_float h.p99)

let event_fields_json fields =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (json_float v))
       fields)

let summary_tables () =
  let tables = ref [] in
  let spans =
    List.sort
      (fun a b -> compare (b.total_s, a.path) (a.total_s, b.path))
      (span_stats ())
  in
  if spans <> [] then begin
    let t =
      Table.create ~title:"Spans (wall time by nesting path)"
        ~columns:
          [ "path"; "calls"; "total ms"; "self ms"; "mean ms"; "minor Mw";
            "major Mw" ]
    in
    List.iter
      (fun (s : span_stat) ->
        Table.add_row t
          [ s.path;
            string_of_int s.calls;
            Printf.sprintf "%.3f" (1e3 *. s.total_s);
            Printf.sprintf "%.3f" (1e3 *. s.self_s);
            Printf.sprintf "%.4f" (1e3 *. s.total_s /. float_of_int s.calls);
            Printf.sprintf "%.2f" (s.minor_words /. 1e6);
            Printf.sprintf "%.2f" (s.major_words /. 1e6) ])
      spans;
    tables := t :: !tables
  end;
  let cs = counters () in
  if cs <> [] then begin
    let t = Table.create ~title:"Counters" ~columns:[ "name"; "value" ] in
    List.iter (fun (name, v) -> Table.add_row t [ name; string_of_int v ]) cs;
    tables := t :: !tables
  end;
  let gs = gauges () in
  if gs <> [] then begin
    let t =
      Table.create ~title:"Gauges"
        ~columns:[ "name"; "last"; "min"; "max"; "samples" ]
    in
    List.iter
      (fun (name, (g : gauge_stat)) ->
        Table.add_row t
          [ name;
            json_float g.last;
            json_float g.min;
            json_float g.max;
            string_of_int g.samples ])
      gs;
    tables := t :: !tables
  end;
  let hs = histograms () in
  if hs <> [] then begin
    let t =
      Table.create ~title:"Histograms (log-bucketed quantiles)"
        ~columns:[ "name"; "count"; "p50"; "p90"; "p99"; "max" ]
    in
    List.iter
      (fun (name, (h : hist_stat)) ->
        Table.add_row t
          [ name;
            string_of_int h.count;
            json_float h.p50;
            json_float h.p90;
            json_float h.p99;
            json_float h.max ])
      hs;
    tables := t :: !tables
  end;
  List.rev !tables

let print_summary () = List.iter Table.print (summary_tables ())

(* One event per line, fields inlined after the fixed keys so line-
   oriented tools (grep/sed feeding gnuplot) can extract trajectories
   without a JSON parser. *)
let event_jsonl_line e =
  let fields = event_fields_json e.fields in
  Printf.sprintf
    "{\"type\":\"event\",\"name\":\"%s\",\"seq\":%d,\"t_s\":%s,\"dom\":%d%s%s}"
    (json_escape e.name) e.seq (json_float e.t_s) e.dom
    (if fields = "" then "" else ",")
    fields

let events_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (event_jsonl_line e);
      Buffer.add_char buf '\n')
    (events ());
  let dropped = progress_dropped () in
  if dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "{\"type\":\"meta\",\"progress_dropped\":%d}\n" dropped);
  Buffer.contents buf

let jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}\n"
           (json_escape name) v))
    (counters ());
  List.iter
    (fun (name, (g : gauge_stat)) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"type\":\"gauge\",\"name\":\"%s\",\"last\":%s,\"min\":%s,\"max\":%s,\"samples\":%d}\n"
           (json_escape name) (json_float g.last) (json_float g.min)
           (json_float g.max) g.samples))
    (gauges ());
  List.iter
    (fun (name, (h : hist_stat)) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"type\":\"histogram\",\"name\":\"%s\",\"stats\":%s}\n"
           (json_escape name) (hist_json h)))
    (histograms ());
  List.iter
    (fun (s : span_stat) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"type\":\"span\",\"name\":\"%s\",\"path\":\"%s\",\"calls\":%d,\"total_s\":%s,\"self_s\":%s,\"minor_words\":%s,\"major_words\":%s,\"compactions\":%d}\n"
           (json_escape (leaf s.path))
           (json_escape s.path) s.calls (json_float s.total_s)
           (json_float s.self_s)
           (json_float s.minor_words)
           (json_float s.major_words)
           s.compactions))
    (span_stats ());
  List.iter
    (fun e ->
      Buffer.add_string buf (event_jsonl_line e);
      Buffer.add_char buf '\n')
    (events ());
  let dropped = events_dropped () in
  if dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "{\"type\":\"meta\",\"events_dropped\":%d}\n" dropped);
  let pdropped = progress_dropped () in
  if pdropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "{\"type\":\"meta\",\"progress_dropped\":%d}\n" pdropped);
  Buffer.contents buf

let metrics_json () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (json_escape name) v))
    (counters ());
  Buffer.add_string buf "},\"gauges\":{";
  List.iteri
    (fun i (name, (g : gauge_stat)) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\"%s\":{\"last\":%s,\"min\":%s,\"max\":%s,\"samples\":%d}"
           (json_escape name) (json_float g.last) (json_float g.min)
           (json_float g.max) g.samples))
    (gauges ());
  Buffer.add_string buf "},\"histograms\":{";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%s" (json_escape name) (hist_json h)))
    (histograms ());
  (* Progress is summarised, not dumped: the raw stream goes to
     [write_events] (results/progress.jsonl in the bench). *)
  let evs = events () in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace counts e.name
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts e.name)))
    evs;
  Buffer.add_string buf
    (Printf.sprintf "},\"progress\":{\"events\":%d,\"dropped\":%d,\"by_name\":{"
       (List.length evs) (progress_dropped ()));
  List.iteri
    (fun i (name, n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (json_escape name) n))
    (List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []));
  Buffer.add_string buf "}}}";
  Buffer.contents buf

let chrome_trace () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  (* Per-state event lists are newest-first; emission order is
     irrelevant to the trace viewers, which sort by [ts].  Each domain's
     intervals land on their own [tid] row. *)
  List.iter
    (fun st ->
      List.iter
        (fun e ->
          if !first then first := false else Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"netrec\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d}"
               (json_escape (leaf e.epath))
               (json_float (1e6 *. e.ets))
               (json_float (1e6 *. e.edur))
               e.etid))
        st.events)
    (states ());
  Buffer.add_string buf "]}";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_jsonl path = write_file path (jsonl ())
let write_events path = write_file path (events_jsonl ())
let write_chrome_trace path = write_file path (chrome_trace ())
