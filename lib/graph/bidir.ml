module Obs = Netrec_obs.Obs

type tie = By_id | Fifo

let all _ = true

(* ---- pooled scratch ----

   Per-domain working arrays, grown once and cleared lazily with a
   generation stamp (the same scheme as Dijkstra's): [xmark.(v) = stamp]
   means the matching [x] entry of [v] is valid for the current call. *)

type scratch = {
  mutable fmark : int array;
  mutable fdist : int array;  (* hops from src, forward ball *)
  mutable bmark : int array;
  mutable bdist : int array;  (* hops to dst, backward ball *)
  mutable smark : int array;  (* on the shortest-path DAG *)
  mutable layer : int array;  (* DAG vertex: hops from src *)
  mutable pmark : int array;  (* reached in the replay *)
  mutable pred : int array;  (* replay: edge that first reached v *)
  (* Each ball's vertices in BFS order, one frontier per contiguous
     segment.  Once the balls meet, [bq] is reused for the DAG and [fq]
     for the replay queue. *)
  mutable fq : int array;
  mutable bq : int array;
  mutable stamp : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { fmark = [||];
        fdist = [||];
        bmark = [||];
        bdist = [||];
        smark = [||];
        layer = [||];
        pmark = [||];
        pred = [||];
        fq = [||];
        bq = [||];
        stamp = 0 })

let scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.fmark < n then begin
    let cap = max n (2 * Array.length s.fmark) in
    let ints () = Array.make cap 0 in
    s.fmark <- ints ();
    s.fdist <- ints ();
    s.bmark <- ints ();
    s.bdist <- ints ();
    s.smark <- ints ();
    s.layer <- ints ();
    s.pmark <- ints ();
    s.pred <- ints ();
    s.fq <- ints ();
    s.bq <- ints ();
    s.stamp <- 0
  end;
  s.stamp <- s.stamp + 1;
  s

let sort_segment a lo hi =
  if hi - lo > 1 then begin
    let seg = Array.sub a lo (hi - lo) in
    Array.sort Int.compare seg;
    Array.blit seg 0 a lo (hi - lo)
  end

(* One BFS ball: its labels, and its vertices in BFS order in [q] with
   the frontier (the vertices at [depth]) in the segment [lo, hi). *)
type ball = {
  mark : int array;
  dist : int array;
  q : int array;
  mutable lo : int;
  mutable hi : int;
  mutable depth : int;
  mutable vol : int;  (* incidences the next [grow] scans *)
}

(* Step 1: balanced bidirectional BFS.  [grow b ~other] expands [b]'s
   whole frontier into the next layer and says whether it touched
   [other].  Whole layers keep every label exact: once the balls touch,
   every vertex labelled by both lies on a shortest path, at the forward
   frontier's depth.  [Some (fwd, bwd)] once they touch; [None] when
   either ball runs out, having labelled its whole working component. *)
let meet ~vertex_ok ~edge_ok ~scanned g s src dst =
  let st = s.stamp in
  let ball mark dist q v =
    mark.(v) <- st;
    dist.(v) <- 0;
    q.(0) <- v;
    { mark; dist; q; lo = 0; hi = 1; depth = 0; vol = Graph.degree g v }
  in
  let grow b ~other =
    let tail = ref b.hi and vol = ref 0 and touched = ref false in
    for i = b.lo to b.hi - 1 do
      let u = b.q.(i) in
      scanned := !scanned + Graph.degree g u;
      Graph.iter_incident g u (fun w e ->
          if b.mark.(w) <> st && vertex_ok w && edge_ok e then begin
            b.mark.(w) <- st;
            b.dist.(w) <- b.depth + 1;
            b.q.(!tail) <- w;
            incr tail;
            vol := !vol + Graph.degree g w;
            if other.mark.(w) = st then touched := true
          end)
    done;
    b.lo <- b.hi;
    b.hi <- !tail;
    b.depth <- b.depth + 1;
    b.vol <- !vol;
    !touched
  in
  let fwd = ball s.fmark s.fdist s.fq src in
  let bwd = ball s.bmark s.bdist s.bq dst in
  let met = ref false in
  while (not !met) && fwd.lo < fwd.hi && bwd.lo < bwd.hi do
    met :=
      if fwd.vol <= bwd.vol then grow fwd ~other:bwd else grow bwd ~other:fwd
  done;
  if !met then Some (fwd, bwd) else None

(* Steps 2 and 3, from balls that met: the edges of the path the
   whole-graph search returns. *)
let dag_path ~edge_ok ~tie ~scanned g s src dst fwd bwd =
  let st = s.stamp in
  let scan v = scanned := !scanned + Graph.degree g v in
  let d = fwd.depth + bwd.depth and m = fwd.depth in
  (* Step 2: the shortest-path DAG, layer by layer in [bq].  The
     meeting layer m is the forward frontier's doubly-labelled
     vertices.  From a DAG layer k, the next layer toward src is the
     neighbours with forward label k - 1 (forward labels are exact up
     to m); toward dst, the neighbours with backward label d - k - 1. *)
  let q = s.bq in
  let top = ref 0 in
  let add v k =
    s.smark.(v) <- st;
    s.layer.(v) <- k;
    q.(!top) <- v;
    incr top
  in
  for i = fwd.lo to fwd.hi - 1 do
    let v = fwd.q.(i) in
    if bwd.mark.(v) = st then add v m
  done;
  let meeting = !top in
  let rec propagate b ~step ~label lo hi k =
    let next = k + step in
    if next >= 0 && next <= d then begin
      let t = !top in
      for i = lo to hi - 1 do
        let w = q.(i) in
        scan w;
        Graph.iter_incident g w (fun u e ->
            if s.smark.(u) <> st && b.mark.(u) = st
               && b.dist.(u) = label next && edge_ok e
            then add u next)
      done;
      propagate b ~step ~label t !top next
    end
  in
  propagate fwd ~step:(-1) ~label:(fun k -> k) 0 meeting m;
  propagate bwd ~step:1 ~label:(fun k -> d - k) 0 meeting m;
  (* Step 3: replay the whole-graph search over the DAG alone.  Layer
     k is scanned in the order that search settles it — vertex id for
     Dijkstra's (dist, id) heap, discovery order for FIFO BFS — and
     each layer-(k+1) vertex keeps the first edge that reaches it. *)
  let q = s.fq in
  s.pmark.(src) <- st;
  q.(0) <- src;
  let rec replay lo hi k =
    if k < d then begin
      if tie = By_id then sort_segment q lo hi;
      let tail = ref hi in
      for i = lo to hi - 1 do
        let u = q.(i) in
        scan u;
        Graph.iter_incident g u (fun w e ->
            if s.smark.(w) = st && s.layer.(w) = k + 1 && s.pmark.(w) <> st
               && edge_ok e
            then begin
              s.pmark.(w) <- st;
              s.pred.(w) <- e;
              q.(!tail) <- w;
              incr tail
            end)
      done;
      replay hi !tail (k + 1)
    end
  in
  replay 0 1 0;
  let rec walk v acc =
    if v = src then acc
    else
      let e = s.pred.(v) in
      walk (Graph.other_end g e v) (e :: acc)
  in
  walk dst []

let check_range fn g src dst =
  let n = Graph.nv g in
  if src < 0 || src >= n then invalid_arg (fn ^ ": source out of range");
  if dst < 0 || dst >= n then invalid_arg (fn ^ ": target out of range")

let path ?(vertex_ok = all) ?(edge_ok = all) ~tie g src dst =
  check_range "Bidir.path" g src dst;
  Obs.count "bidir.calls";
  if not (vertex_ok src && vertex_ok dst) then None
  else if src = dst then Some []
  else begin
    let scanned = ref 0 in
    let s = scratch (Graph.nv g) in
    let r =
      Option.map
        (fun (fwd, bwd) -> dag_path ~edge_ok ~tie ~scanned g s src dst fwd bwd)
        (meet ~vertex_ok ~edge_ok ~scanned g s src dst)
    in
    (* Batched per-call accounting, like dijkstra.settled. *)
    Obs.count ~n:!scanned "bidir.scanned";
    r
  end

let reachable ?(vertex_ok = all) ?(edge_ok = all) g src dst =
  check_range "Bidir.reachable" g src dst;
  Obs.count "bidir.reach_calls";
  vertex_ok src && vertex_ok dst
  && (src = dst
     ||
     let scanned = ref 0 in
     let s = scratch (Graph.nv g) in
     let met = meet ~vertex_ok ~edge_ok ~scanned g s src dst in
     Obs.count ~n:!scanned "bidir.reach_scanned";
     Option.is_some met)
