module Obs = Netrec_obs.Obs

let all _ = true

(* ---- pooled scratch ----

   Dijkstra is the hot kernel of the repository (the ISP centrality loop
   issues it ~100k times per bench sweep), so the working state lives in
   a per-domain scratch record that is grown once and reused across
   calls: distance/predecessor arrays are cleared lazily with a visit
   stamp instead of re-allocated, and the heap arrays persist.  The
   scratch is domain-local (one per OCaml 5 domain), which keeps the
   kernel safe under the multicore experiment fan-out without any
   locking. *)

type scratch = {
  mutable dist : float array;
  mutable pred : int array;
  mutable seen : int array;  (* seen.(v) = stamp: dist/pred valid *)
  mutable settled : int array;  (* settled.(v) = stamp: popped final *)
  mutable stamp : int;
  (* Binary min-heap with lazy deletion, packed into parallel arrays.
     Ordering is lexicographic on (priority, vertex id): equal-distance
     vertices always settle in vertex-id order, independently of heap
     insertion history.  That makes the relaxation order — and so the
     predecessor choice among equal-length shortest paths — a pure
     function of the distance values, which the incremental centrality
     cache relies on (see DESIGN §11). *)
  mutable hp : float array;
  mutable hv : int array;
  mutable hlen : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { dist = [||];
        pred = [||];
        seen = [||];
        settled = [||];
        stamp = 0;
        hp = Array.make 16 infinity;
        hv = Array.make 16 0;
        hlen = 0 })

let scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.dist < n then begin
    let cap = max n (2 * Array.length s.dist) in
    s.dist <- Array.make cap infinity;
    s.pred <- Array.make cap (-1);
    s.seen <- Array.make cap 0;
    s.settled <- Array.make cap 0;
    s.stamp <- 0
  end;
  s.stamp <- s.stamp + 1;
  s.hlen <- 0;
  s

(* The heap sifts with a hole: the moving entry stays in registers and
   each step copies one parent or child, instead of swapping pairs.  It
   makes the same comparisons, in the same order, as a swap-based sift,
   so the heap holds the same entries in the same slots. *)
let heap_push s p v =
  if s.hlen = Array.length s.hp then begin
    let cap = 2 * s.hlen in
    let hp = Array.make cap infinity and hv = Array.make cap 0 in
    Array.blit s.hp 0 hp 0 s.hlen;
    Array.blit s.hv 0 hv 0 s.hlen;
    s.hp <- hp;
    s.hv <- hv
  end;
  let hp = s.hp and hv = s.hv in
  let i = ref s.hlen in
  s.hlen <- s.hlen + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = hp.(parent) in
    if p < pp || (p = pp && v < hv.(parent)) then begin
      hp.(!i) <- pp;
      hv.(!i) <- hv.(parent);
      i := parent
    end
    else rising := false
  done;
  hp.(!i) <- p;
  hv.(!i) <- v

(* Pop the minimum (priority, vertex) pair; -1 when empty.  The last
   entry sinks from the root: at each step it gives way to the left
   child when that one is smaller, and then to the right child when that
   one is smaller still. *)
let heap_pop s =
  if s.hlen = 0 then -1
  else begin
    let hp = s.hp and hv = s.hv in
    let top = hv.(0) in
    let n = s.hlen - 1 in
    s.hlen <- n;
    if n > 0 then begin
      let p = hp.(n) and v = hv.(n) in
      let i = ref 0 and sinking = ref true in
      while !sinking do
        let l = (2 * !i) + 1 in
        let r = l + 1 in
        let c =
          if l < n && (hp.(l) < p || (hp.(l) = p && hv.(l) < v)) then
            if r < n && (hp.(r) < hp.(l) || (hp.(r) = hp.(l) && hv.(r) < hv.(l)))
            then r
            else l
          else if r < n && (hp.(r) < p || (hp.(r) = p && hv.(r) < v)) then r
          else -1
        in
        if c < 0 then sinking := false
        else begin
          hp.(!i) <- hp.(c);
          hv.(!i) <- hv.(c);
          i := c
        end
      done;
      hp.(!i) <- p;
      hv.(!i) <- v
    end;
    top
  end

(* Seed a source at distance 0 (a repeated source is seeded once). *)
let seed s v =
  if s.seen.(v) <> s.stamp then begin
    s.dist.(v) <- 0.0;
    s.pred.(v) <- -1;
    s.seen.(v) <- s.stamp;
    heap_push s 0.0 v
  end

(* The one search loop, on pooled scratch seeded with its sources.  It
   stops when the heap runs dry, when [target] (an id, or -1 for none)
   is settled, or before it settles a vertex farther than [bound].  The
   rows of [Graph.csr] are walked in slot order, which is
   [iter_incident]'s order.  Every vertex settles at most once: a
   settled mark makes stale lazy-deletion entries skip.  Returns the
   number of vertices settled. *)
let settle_loop s ~vertex_ok ~edge_ok ~target ~bound ~length g =
  let off, nbr, eid = Graph.csr g in
  let stamp = s.stamp in
  let dist = s.dist and pred = s.pred and seen = s.seen in
  let settled = s.settled in
  let nsettled = ref 0 in
  let running = ref true in
  while !running && s.hlen > 0 do
    if s.hp.(0) > bound then running := false
    else begin
      let u = heap_pop s in
      if settled.(u) <> stamp then begin
        settled.(u) <- stamp;
        incr nsettled;
        if u = target then running := false
        else begin
          let d = dist.(u) in
          for k = off.(u) to off.(u + 1) - 1 do
            let w = nbr.(k) and e = eid.(k) in
            if vertex_ok w && edge_ok e then begin
              let len = length e in
              if len < 0.0 then invalid_arg "Dijkstra: negative edge length";
              let nd = d +. len in
              if seen.(w) <> stamp || nd < dist.(w) then begin
                dist.(w) <- nd;
                pred.(w) <- e;
                seen.(w) <- stamp;
                heap_push s nd w
              end
            end
          done
        end
      end
    end
  done;
  !nsettled

(* Batched per-call accounting: one table update instead of one per
   settle, and the per-call distribution feeds the tail-latency
   histograms. *)
let account nsettled =
  if nsettled > 0 then Obs.count ~n:nsettled "dijkstra.settled";
  Obs.observe "dijkstra.settled_per_call" (float_of_int nsettled)

let search ?(vertex_ok = all) ?(edge_ok = all) ?target ~length g src =
  Obs.count "dijkstra.calls";
  let n = Graph.nv g in
  if src < 0 || src >= n then invalid_arg "Dijkstra: source out of range";
  let target =
    match target with
    | None -> -1
    | Some t when t < 0 || t >= n -> invalid_arg "Dijkstra: target out of range"
    | Some t -> t
  in
  let s = scratch n in
  let nsettled =
    if vertex_ok src then begin
      seed s src;
      settle_loop s ~vertex_ok ~edge_ok ~target ~bound:infinity ~length g
    end
    else 0
  in
  account nsettled;
  s

let within ?(edge_ok = all) ~bound ~length g sources =
  Obs.count "dijkstra.calls";
  let n = Graph.nv g in
  List.iter
    (fun v -> if v < 0 || v >= n then invalid_arg "Dijkstra: source out of range")
    sources;
  let s = scratch n in
  List.iter (seed s) sources;
  let nsettled =
    settle_loop s ~vertex_ok:all ~edge_ok ~target:(-1) ~bound ~length g
  in
  account nsettled;
  (* Every vertex left unsettled is at least as far as the smallest
     distance still queued. *)
  let floor = if s.hlen > 0 then s.hp.(0) else infinity in
  let stamp = s.stamp in
  Array.init n (fun v -> if s.settled.(v) = stamp then s.dist.(v) else floor)

let run ?vertex_ok ?edge_ok ?target ~length g src =
  let n = Graph.nv g in
  let s = search ?vertex_ok ?edge_ok ?target ~length g src in
  let stamp = s.stamp in
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  for v = 0 to n - 1 do
    if s.seen.(v) = stamp then begin
      dist.(v) <- s.dist.(v);
      pred.(v) <- s.pred.(v)
    end
  done;
  (dist, pred)

let distances ?vertex_ok ?edge_ok ?target ~length g src =
  fst (run ?vertex_ok ?edge_ok ?target ~length g src)

let shortest_path ?vertex_ok ?edge_ok ~length g src dst =
  let n = Graph.nv g in
  if dst < 0 || dst >= n then invalid_arg "Dijkstra: target out of range";
  let s = search ?vertex_ok ?edge_ok ~target:dst ~length g src in
  let stamp = s.stamp in
  if s.seen.(dst) <> stamp || s.dist.(dst) = infinity then None
  else begin
    let rec walk v acc =
      if v = src then acc
      else
        let e = s.pred.(v) in
        walk (Graph.other_end g e v) (e :: acc)
    in
    Some (walk dst [])
  end
