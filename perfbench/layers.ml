(* The library's own telemetry, read from outside: counters and span
   aggregates of [Netrec_obs.Obs] are snapshotted before and after each
   call the benchmark makes, and the differences are summed per phase.
   Spans are keyed by their leaf name ("isp.prune_pass"), wherever they
   nest. *)

module Obs = Netrec_obs.Obs

type snap = { counters : (string * int) list; spans : Obs.span_stat list }

let snap () = { counters = Obs.counters (); spans = Obs.span_stats () }

let leaf path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

(* Phase accumulators: counter deltas, and per-leaf span self time,
   total time and major-heap words. *)
type acc = {
  counts : (string, int) Hashtbl.t;
  self_s : (string, float) Hashtbl.t;
  total_s : (string, float) Hashtbl.t;
  major_words : (string, float) Hashtbl.t;
  root_self_s : (string, float) Hashtbl.t;  (** self time of top-level spans *)
  root_total_s : (string, float) Hashtbl.t;
}

let phases : (string, acc) Hashtbl.t = Hashtbl.create 4

let acc phase =
  match Hashtbl.find_opt phases phase with
  | Some a -> a
  | None ->
    let a =
      { counts = Hashtbl.create 64; self_s = Hashtbl.create 32;
        total_s = Hashtbl.create 32; major_words = Hashtbl.create 32;
        root_self_s = Hashtbl.create 8; root_total_s = Hashtbl.create 8 }
    in
    Hashtbl.replace phases phase a;
    a

let reset () = Hashtbl.reset phases

let bump tbl k d =
  Hashtbl.replace tbl k (d +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let add_delta phase (a : snap) (b : snap) =
  let t = acc phase in
  List.iter
    (fun (k, v) ->
      let before = Option.value ~default:0 (List.assoc_opt k a.counters) in
      if v <> before then
        Hashtbl.replace t.counts k
          (v - before + Option.value ~default:0 (Hashtbl.find_opt t.counts k)))
    b.counters;
  let prev = Hashtbl.create 32 in
  List.iter (fun (s : Obs.span_stat) -> Hashtbl.replace prev s.path s) a.spans;
  List.iter
    (fun (s : Obs.span_stat) ->
      let d f = f s -. match Hashtbl.find_opt prev s.path with Some p -> f p | None -> 0.0 in
      let l = leaf s.path in
      bump t.self_s l (d (fun s -> s.self_s));
      bump t.total_s l (d (fun s -> s.total_s));
      bump t.major_words l (d (fun s -> s.major_words));
      if not (String.contains s.path '/') then begin
        bump t.root_self_s l (d (fun s -> s.self_s));
        bump t.root_total_s l (d (fun s -> s.total_s))
      end)
    b.spans

let recording = ref true

(** [around phase f] runs [f] and adds the library telemetry it produced
    to [phase]; a plain call while the collector or [recording] is off. *)
let around phase f =
  if not (!recording && Obs.enabled ()) then f ()
  else begin
    let a = snap () in
    let r = f () in
    add_delta phase a (snap ());
    r
  end

let phase_list = function [] -> Hashtbl.fold (fun k _ l -> k :: l) phases [] | l -> l

let count ?(phases = []) k =
  List.fold_left
    (fun s p ->
      s + Option.value ~default:0 (Hashtbl.find_opt (acc p).counts k))
    0 (phase_list phases)

let fsum field ?(phases = []) k =
  List.fold_left
    (fun s p -> s +. Option.value ~default:0.0 (Hashtbl.find_opt (field (acc p)) k))
    0.0 (phase_list phases)

let self_s = fsum (fun a -> a.self_s)
let total_s = fsum (fun a -> a.total_s)
let major_words = fsum (fun a -> a.major_words)

let sum_all field ?(phases = []) () =
  List.fold_left
    (fun s p -> Hashtbl.fold (fun _ v s -> s +. v) (field (acc p)) s)
    0.0 (phase_list phases)

(** Self and total time of the library's top-level spans (the solver
    entry points): their self time is solver time that no named phase
    span inside the solver covers. *)
let root_self_s = sum_all (fun a -> a.root_self_s)
let root_total_s = sum_all (fun a -> a.root_total_s)

let ratio num den = if den = 0.0 then 0.0 else num /. den
