module Obs = Netrec_obs.Obs

type result = { value : float; edge_flow : float array }

let all _ = true

(* Arc encoding: undirected edge [e] becomes arcs [2e] (u -> v) and [2e+1]
   (v -> u), each with the edge capacity; pushing on one increases the
   residual of the other, which realises the undirected capacity model. *)

let flow_eps = Netrec_util.Num.flow_eps

(* ---- pooled scratch ----

   ISP issues a few hundred max-flows per plan, most of them on a small
   admissible subgraph of a large graph, so a call must not pay O(n+m)
   of allocation before its first augmenting path.  The arcs leaving a
   vertex are read straight off the graph's CSR row ([Graph.csr]), in
   edge-id order, which fixes the order of phases and augmentations; a
   slot's direction and a default capacity come from the edge columns
   ([Graph.columns]).
   Residuals, levels, current-arc cursors and the BFS queue live in a
   per-domain scratch record that is grown once and reused, like
   Dijkstra's: concurrent calls on different domains never share it, and
   the callbacks ([vertex_ok], [edge_ok], [cap]) must never call back
   into this module. *)

type scratch = {
  mutable resid : float array;  (* per arc, at least 2 ne *)
  mutable level : int array;  (* per vertex, at least nv *)
  mutable cursor : int array;  (* current-arc slot per vertex *)
  mutable queue : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { resid = [||]; level = [||]; cursor = [||]; queue = [||] })

let scratch ~n ~m =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.level < n then begin
    let len = max n (2 * Array.length s.level) in
    s.level <- Array.make len (-1);
    s.cursor <- Array.make len 0;
    s.queue <- Array.make len 0
  end;
  if Array.length s.resid < 2 * m then
    s.resid <- Array.make (max (2 * m) (2 * Array.length s.resid)) 0.0;
  s

(* Dinic on the scratch: returns the flow value and leaves the final
   residuals in [s.resid], valid until the next call on this domain. *)
let dinic ~vertex_ok ~edge_ok ~cap g ~source ~sink =
  Obs.count "maxflow.calls";
  let n = Graph.nv g and m = Graph.ne g in
  if source < 0 || source >= n || sink < 0 || sink >= n then
    invalid_arg "Maxflow: vertex out of range";
  let s = scratch ~n ~m in
  let resid = s.resid and level = s.level and cursor = s.cursor in
  let queue = s.queue in
  let src, _, capacity = Graph.columns g in
  for e = 0 to m - 1 do
    let c = match cap with Some f -> f e | None -> capacity.(e) in
    if c < 0.0 then invalid_arg "Maxflow: negative capacity";
    resid.(2 * e) <- c;
    resid.((2 * e) + 1) <- c
  done;
  let off, nbr, eid = Graph.csr g in
  (* The arc of slot [k] in the row of [tail]. *)
  let arc tail k =
    let e = eid.(k) in
    if src.(e) = tail then 2 * e else (2 * e) + 1
  in
  (* An arc is admissible when its edge and its head are: its tail
     always is, since the source is checked and every other tail was
     reached over an admissible arc.  The search stops once the sink
     has its level: a vertex at or beyond the sink's level, other than
     the sink, cannot lie on a shortest augmenting path, so leaving it
     unlevelled only skips a blocking-flow dead end. *)
  let build_levels () =
    Array.fill level 0 n (-1);
    vertex_ok source
    && begin
      level.(source) <- 0;
      queue.(0) <- source;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail && level.(sink) < 0 do
        let u = queue.(!head) in
        incr head;
        let next = level.(u) + 1 in
        for k = off.(u) to off.(u + 1) - 1 do
          let w = nbr.(k) in
          if level.(w) < 0 then begin
            let a = arc u k in
            if resid.(a) > flow_eps && edge_ok (a lsr 1) && vertex_ok w
            then begin
              level.(w) <- next;
              queue.(!tail) <- w;
              incr tail
            end
          end
        done
      done;
      level.(sink) >= 0
    end
  in
  (* [cursor] is the current-arc optimisation: a slot per vertex,
     advanced past exhausted arcs within one blocking-flow phase.  A
     head one level up was levelled over an admissible arc, so only the
     edge is checked here. *)
  let rec push u limit =
    if u = sink then limit
    else begin
      let got = ref 0.0 in
      let stop = off.(u + 1) in
      let next = level.(u) + 1 in
      while !got <= flow_eps && cursor.(u) < stop do
        let k = cursor.(u) in
        let w = nbr.(k) in
        if level.(w) <> next then cursor.(u) <- k + 1
        else begin
          let a = arc u k in
          if resid.(a) <= flow_eps || not (edge_ok (a lsr 1)) then
            cursor.(u) <- k + 1
          else begin
            let pushed = push w (Float.min limit resid.(a)) in
            if pushed > flow_eps then begin
              resid.(a) <- resid.(a) -. pushed;
              resid.(a lxor 1) <- resid.(a lxor 1) +. pushed;
              got := pushed
              (* keep the cursor on this arc: it may carry more flow *)
            end
            else cursor.(u) <- k + 1
          end
        end
      done;
      !got
    end
  in
  let value = ref 0.0 in
  if source <> sink then begin
    while build_levels () do
      Obs.count "maxflow.phases";
      Array.blit off 0 cursor 0 n;
      let rec drain () =
        let got = push source infinity in
        if got > flow_eps then begin
          Obs.count "maxflow.augmentations";
          value := !value +. got;
          drain ()
        end
      in
      drain ()
    done
  end;
  !value

let max_flow_value ?(vertex_ok = all) ?(edge_ok = all) ?cap g ~source ~sink =
  dinic ~vertex_ok ~edge_ok ~cap g ~source ~sink

let max_flow ?(vertex_ok = all) ?(edge_ok = all) ?cap g ~source ~sink =
  let value = dinic ~vertex_ok ~edge_ok ~cap g ~source ~sink in
  let resid = (Domain.DLS.get scratch_key).resid in
  let edge_flow =
    Array.init (Graph.ne g) (fun e ->
        (resid.((2 * e) + 1) -. resid.(2 * e)) /. 2.0)
  in
  { value; edge_flow }

let min_cut ?(vertex_ok = all) ?(edge_ok = all) ?cap g ~source ~sink =
  let { edge_flow; _ } = max_flow ~vertex_ok ~edge_ok ?cap g ~source ~sink in
  let src, dst, capacity = Graph.columns g in
  let cap_of e = match cap with Some f -> f e | None -> capacity.(e) in
  (* Residual reachability from the source: an edge is traversable u -> v
     when its residual capacity in that direction is positive. *)
  let n = Graph.nv g in
  let seen = Array.make n false in
  if vertex_ok source then begin
    let queue = Queue.create () in
    seen.(source) <- true;
    Queue.add source queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Graph.iter_incident g u (fun w e ->
          if vertex_ok w && edge_ok e && not seen.(w) then begin
            let along = if src.(e) = u then edge_flow.(e) else -.edge_flow.(e) in
            if cap_of e -. along > flow_eps then begin
              seen.(w) <- true;
              Queue.add w queue
            end
          end)
    done
  end;
  let side = List.filter (fun v -> seen.(v)) (Graph.vertices g) in
  let crossing = ref [] in
  for e = 0 to Graph.ne g - 1 do
    let u = src.(e) and v = dst.(e) in
    if edge_ok e && vertex_ok u && vertex_ok v && seen.(u) <> seen.(v) then
      crossing := e :: !crossing
  done;
  (side, List.rev !crossing)

let decompose g ~source ~sink { edge_flow; _ } =
  let flow = Array.copy edge_flow in
  (* Walk positive-flow arcs from source to sink, peel off the bottleneck,
     repeat.  Each peel zeroes at least one edge, so at most [ne] paths. *)
  let n = Graph.nv g in
  let src, _, _ = Graph.columns g in
  let along e u = if src.(e) = u then flow.(e) else -.flow.(e) in
  let rec find_path () =
    let pred = Array.make n (-1) in
    let seen = Array.make n false in
    let queue = Queue.create () in
    seen.(source) <- true;
    Queue.add source queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      if not !found then
        Graph.iter_incident g u (fun w e ->
            if (not seen.(w)) && along e u > flow_eps then begin
              seen.(w) <- true;
              pred.(w) <- e;
              if w = sink then found := true else Queue.add w queue
            end)
    done;
    if not !found then []
    else begin
      let rec walk v acc =
        if v = source then acc
        else
          let e = pred.(v) in
          walk (Graph.other_end g e v) (e :: acc)
      in
      let path = walk sink [] in
      let rec bottleneck v acc = function
        | [] -> acc
        | e :: rest ->
          let w = Graph.other_end g e v in
          bottleneck w (Float.min acc (along e v)) rest
      in
      let amt = bottleneck source infinity path in
      let rec subtract v = function
        | [] -> ()
        | e :: rest ->
          let w = Graph.other_end g e v in
          if src.(e) = v then flow.(e) <- flow.(e) -. amt
          else flow.(e) <- flow.(e) +. amt;
          subtract w rest
      in
      subtract source path;
      if amt > flow_eps then (path, amt) :: find_path () else []
    end
  in
  if source = sink then [] else find_path ()
