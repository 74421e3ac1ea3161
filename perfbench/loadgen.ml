(* Open-loop load generation.  Independent users send on a schedule
   whether or not earlier replies have arrived, so each query is timed
   from the moment it was due: a stall on the connection then shows up
   as latency on every query queued behind it, instead of silently
   lowering the offered load. *)

type record = {
  due : float;  (** when the schedule said to send *)
  sent : float;  (** when the query actually left *)
  finished : float;  (** when its reply was in hand *)
}

let latency r = r.finished -. r.due

(** How late the generator sent the query. *)
let lag r = r.sent -. r.due

(** Due times of [n] queries at [rate] per second from [start]. *)
let schedule ~start ~rate n =
  Array.init n (fun i -> start +. (float_of_int i /. rate))

(** Drive one connection: wait for each due time (or not at all when
    the previous reply came back late), send, and record.  [now] and
    [sleep_until] are the clock, injectable for tests. *)
let run ~now ~sleep_until ~send dues =
  Array.mapi
    (fun i due ->
      sleep_until due;
      let sent = now () in
      send i;
      { due; sent; finished = now () })
    dues

let wall_sleep_until t =
  let d = t -. Unix.gettimeofday () in
  if d > 0.0 then Thread.delay d
