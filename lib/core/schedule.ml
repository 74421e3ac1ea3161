module Num = Netrec_util.Num
module Routing = Netrec_flow.Routing
module Oracle = Netrec_flow.Oracle
module Route_greedy = Netrec_flow.Route_greedy
module Failure = Netrec_disrupt.Failure

type element = [ `Vertex of Graph.vertex | `Edge of Graph.edge_id ]

type order_error =
  | Out_of_range of element
  | Not_broken of element
  | Duplicate of element

let element_to_string = function
  | `Vertex v -> Printf.sprintf "vertex %d" v
  | `Edge e -> Printf.sprintf "edge %d" e

let order_error_to_string = function
  | Out_of_range el -> element_to_string el ^ " is outside the instance's graph"
  | Not_broken el -> element_to_string el ^ " is not broken in the instance"
  | Duplicate el -> element_to_string el ^ " appears more than once"

(* Malformed orders must become structured errors before any array is
   indexed: an out-of-range id handed to [apply] would otherwise escape
   as a bare [Invalid_argument "index out of bounds"]. *)
let validate_order inst order =
  let g = inst.Instance.graph in
  let nv = Graph.nv g and ne = Graph.ne g in
  let seen_v = Array.make nv false and seen_e = Array.make ne false in
  let rec check = function
    | [] -> Ok ()
    | el :: rest -> (
      match el with
      | `Vertex v ->
        if v < 0 || v >= nv then Error (Out_of_range el)
        else if not (Failure.vertex_broken inst.Instance.failure v) then
          Error (Not_broken el)
        else if seen_v.(v) then Error (Duplicate el)
        else begin
          seen_v.(v) <- true;
          check rest
        end
      | `Edge e ->
        if e < 0 || e >= ne then Error (Out_of_range el)
        else if not (Failure.edge_broken inst.Instance.failure e) then
          Error (Not_broken el)
        else if seen_e.(e) then Error (Duplicate el)
        else begin
          seen_e.(e) <- true;
          check rest
        end)
  in
  check order

type sched_state = {
  inst : Instance.t;
  fixed_v : bool array;  (* repaired so far *)
  fixed_e : bool array;
}

let fresh inst =
  { inst;
    fixed_v = Array.make (Graph.nv inst.Instance.graph) false;
    fixed_e = Array.make (Graph.ne inst.Instance.graph) false }

let vertex_ok st v =
  (not (Failure.vertex_broken st.inst.Instance.failure v)) || st.fixed_v.(v)

let edge_ok st e =
  ((not (Failure.edge_broken st.inst.Instance.failure e)) || st.fixed_e.(e))
  &&
  let u, v = Graph.endpoints st.inst.Instance.graph e in
  vertex_ok st u && vertex_ok st v

let apply st = function
  | `Vertex v -> st.fixed_v.(v) <- true
  | `Edge e -> st.fixed_e.(e) <- true

let unapply st = function
  | `Vertex v -> st.fixed_v.(v) <- false
  | `Edge e -> st.fixed_e.(e) <- false

(* Fast lower bound on satisfiable demand: constructive router only. *)
let satisfied_fast st =
  let g = st.inst.Instance.graph in
  let r =
    Route_greedy.route_max ~vertex_ok:(vertex_ok st) ~edge_ok:(edge_ok st)
      ~cap:(Graph.capacity g) g st.inst.Instance.demands
  in
  Routing.satisfaction ~demands:st.inst.Instance.demands r

(* Exact(ish) satisfiable demand for the reported curve. *)
let satisfied_exact st =
  let g = st.inst.Instance.graph in
  let r =
    Oracle.max_satisfiable ~vertex_ok:(vertex_ok st) ~edge_ok:(edge_ok st)
      ~cap:(Graph.capacity g) g st.inst.Instance.demands
  in
  Routing.satisfaction ~demands:st.inst.Instance.demands r

let satisfaction inst elements =
  let st = fresh inst in
  List.iter (apply st) elements;
  satisfied_exact st

let baseline_satisfaction inst = satisfaction inst []

let prefix_satisfactions inst groups =
  let st = fresh inst in
  List.map
    (fun group ->
      List.iter (apply st) group;
      satisfied_exact st)
    groups

let cost_of inst = function
  | `Vertex v -> inst.Instance.vertex_cost.(v)
  | `Edge e -> inst.Instance.edge_cost.(e)

let elements_of solution =
  List.map (fun v -> `Vertex v) solution.Instance.repaired_vertices
  @ List.map (fun e -> `Edge e) solution.Instance.repaired_edges

(* When no single repair yields immediate service (the common case while
   a corridor is half-built), steer towards the unserved demand whose
   completing path needs the fewest still-unexecuted elements: the next
   element of that path is the best zero-gain move. *)
let completion_element st remaining =
  let g = st.inst.Instance.graph in
  (* Membership of the remaining work list as O(1) flags: the predicates
     below run inside every Dijkstra edge relaxation, where a List.mem
     scan turned each call O(|remaining|). *)
  let rem_v = Array.make (Graph.nv g) false in
  let rem_e = Array.make (Graph.ne g) false in
  List.iter
    (function `Vertex v -> rem_v.(v) <- true | `Edge e -> rem_e.(e) <- true)
    remaining;
  let pending_v v =
    Failure.vertex_broken st.inst.Instance.failure v
    && (not st.fixed_v.(v))
    && rem_v.(v)
  in
  let pending_e e =
    Failure.edge_broken st.inst.Instance.failure e
    && (not st.fixed_e.(e))
    && rem_e.(e)
  in
  (* An edge is eventually usable when every broken piece of it is either
     already executed or still scheduled.  The edge's own state is checked
     separately from its endpoints': an {e intact} edge whose endpoint is
     broken-but-scheduled must count as eventually usable ([edge_ok]
     alone would reject it through the endpoint check, hiding corridors
     that reuse surviving links). *)
  let usable_v v = vertex_ok st v || pending_v v in
  let usable_e e =
    let u, v = Graph.endpoints g e in
    ((not (Failure.edge_broken st.inst.Instance.failure e))
    || st.fixed_e.(e) || pending_e e)
    && usable_v u && usable_v v
  in
  let length e =
    let u, v = Graph.endpoints g e in
    let cost_v w = if pending_v w then 0.5 else 0.0 in
    1e-6 +. (if pending_e e then 1.0 else 0.0) +. cost_v u +. cost_v v
  in
  let best = ref None in
  List.iter
    (fun d ->
      if usable_v d.Netrec_flow.Commodity.src
         && usable_v d.Netrec_flow.Commodity.dst
      then begin
        match
          Dijkstra.shortest_path ~vertex_ok:usable_v ~edge_ok:usable_e ~length
            g d.Netrec_flow.Commodity.src d.Netrec_flow.Commodity.dst
        with
        | None -> ()
        | Some p ->
          let pending_work = Paths.length ~length p in
          (match !best with
          | Some (w, _, _) when w <= pending_work -> ()
          | _ -> best := Some (pending_work, d, p))
      end)
    st.inst.Instance.demands;
  match !best with
  | None -> None
  | Some (_, d, p) ->
    (* First unexecuted element along the path, endpoints first. *)
    let rec first v = function
      | [] -> None
      | e :: rest ->
        if pending_v v then Some (`Vertex v)
        else if pending_e e then Some (`Edge e)
        else first (Graph.other_end g e v) rest
    in
    let from_path = first d.Netrec_flow.Commodity.src p in
    (match from_path with
    | Some el -> Some el
    | None ->
      let t = d.Netrec_flow.Commodity.dst in
      if pending_v t then Some (`Vertex t) else None)

let greedy_order inst solution =
  let elements = elements_of solution in
  (match validate_order inst elements with
  | Ok () -> ()
  | Error e ->
    invalid_arg ("Schedule.greedy_order: " ^ order_error_to_string e));
  let st = fresh inst in
  let remaining = ref elements in
  let order = ref [] in
  while !remaining <> [] do
    (* Pick the element with the best immediate (fast) gain; when nothing
       helps immediately, advance the demand closest to completion.  The
       baseline is evaluated once, before the scoring loop touches the
       state. *)
    let baseline = satisfied_fast st in
    let scored =
      List.map
        (fun el ->
          apply st el;
          let s = satisfied_fast st in
          unapply st el;
          (el, s))
        !remaining
    in
    let best, best_gain =
      List.fold_left
        (fun (bel, bs) (el, s) ->
          if
            (not (Num.leq ~eps:Num.flow_eps s bs))
            || (Num.is_zero ~eps:Num.flow_eps (s -. bs)
               && cost_of inst el < cost_of inst bel)
          then (el, s)
          else (bel, bs))
        (List.hd scored) (List.tl scored)
    in
    let choice =
      if not (Num.leq ~eps:Num.flow_eps best_gain baseline) then best
      else
        match completion_element st !remaining with
        | Some el -> el
        | None -> best
    in
    apply st choice;
    remaining := List.filter (fun el -> el <> choice) !remaining;
    order := choice :: !order
  done;
  List.rev !order
