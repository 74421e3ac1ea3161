(* The benchmark's own spans: one around each public call it makes into
   the library, tagged with the plan or query index.  They are kept in
   memory and written out when the run ends; recording is off unless
   [set_enabled true]. *)

type t = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  index : int;  (** plan or query index *)
  start : float;
  stop : float;
}

let enabled = ref false
let set_enabled b = enabled := b
let lock = Mutex.create ()
let next_id = ref 0
let recorded : t list ref = ref []

(* Open span ids per thread: the query workload drives two connections
   from two threads of one process. *)
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      next_id := 0;
      recorded := [];
      Hashtbl.reset stacks)

let with_span name ~index f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      locked (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          Hashtbl.replace stacks tid (id :: stack);
          (id, match stack with p :: _ -> p | [] -> -1))
    in
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        locked (fun () ->
            (match Hashtbl.find_opt stacks tid with
            | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
            | _ -> ());
            recorded := { id; parent; name; index; start; stop } :: !recorded))
  end

(** Spans in the order they were opened. *)
let spans () = List.sort (fun a b -> compare a.id b.id) (locked (fun () -> !recorded))

let duration s = s.stop -. s.start

(** Summed duration of the spans called [name]. *)
let total spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0.0 spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(** A span's duration minus the part of its interval that its child
    spans cover (children may overlap each other). *)
let self_time ~children s =
  duration s -. covered ~lo:s.start ~hi:s.stop
                  (List.map (fun c -> (c.start, c.stop)) children)

(** Self time of every span, by id. *)
let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    spans;
  List.map
    (fun s ->
      (s.id, self_time ~children:(Option.value ~default:[] (Hashtbl.find_opt kids s.id)) s))
    spans

let to_jsonl spans =
  let buf = Buffer.create 4096 in
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let selfs = Hashtbl.create 64 in
  List.iter (fun (id, v) -> Hashtbl.replace selfs id v) (self_times spans);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":%d,\"parent\":%d,\"name\":%S,\"index\":%d,\"start_s\":%.6f,\"dur_s\":%.6f,\"self_s\":%.6f}\n"
           s.id s.parent s.name s.index (s.start -. t0) (duration s)
           (Hashtbl.find selfs s.id)))
    spans;
  Buffer.contents buf
