module Num = Netrec_util.Num
module Failure = Netrec_disrupt.Failure
module Routing = Netrec_flow.Routing

type t = {
  graph : Graph.t;
  src : Graph.vertex array;  (* the graph's edge columns ([Graph.columns]) *)
  dst : Graph.vertex array;
  vertex_cost : float array;
  edge_cost : float array;
  broken_v : bool array;  (* still broken: not listed for repair *)
  broken_e : bool array;
  works_e : bool array;  (* the edge and both endpoints work *)
  mutable vertices : Graph.vertex list;  (* listed for repair, newest first *)
  mutable edges : Graph.edge_id list;
}

let edge_works t e =
  not (t.broken_e.(e) || t.broken_v.(t.src.(e)) || t.broken_v.(t.dst.(e)))

let create inst =
  let g = inst.Instance.graph in
  let src, dst, _ = Graph.columns g in
  let fail = inst.Instance.failure in
  let t =
    { graph = g;
      src;
      dst;
      vertex_cost = inst.Instance.vertex_cost;
      edge_cost = inst.Instance.edge_cost;
      broken_v = Array.copy fail.Failure.broken_vertices;
      broken_e = Array.copy fail.Failure.broken_edges;
      works_e = Array.make (Graph.ne g) false;
      vertices = [];
      edges = [] }
  in
  for e = 0 to Graph.ne g - 1 do
    t.works_e.(e) <- edge_works t e
  done;
  t

let vertex_ok t v = not t.broken_v.(v)
let edge_ok t e = t.works_e.(e)
let edge_broken t e = t.broken_e.(e)

let repair_vertex t v =
  t.broken_v.(v)
  && begin
    t.broken_v.(v) <- false;
    t.vertices <- v :: t.vertices;
    Graph.iter_incident t.graph v (fun _ e -> t.works_e.(e) <- edge_works t e);
    true
  end

let repair_edge t e =
  t.broken_e.(e)
  && begin
    t.broken_e.(e) <- false;
    t.edges <- e :: t.edges;
    t.works_e.(e) <- edge_works t e;
    true
  end

let repair_path ?(on_edge = ignore) ?(on_vertex = ignore) t p =
  let fresh = ref false in
  let vertex v =
    if repair_vertex t v then begin
      fresh := true;
      on_vertex v
    end
  in
  List.iter
    (fun e ->
      if repair_edge t e then begin
        fresh := true;
        on_edge e
      end;
      vertex t.src.(e);
      vertex t.dst.(e))
    p;
  !fresh

let of_solution inst sol =
  let t = create inst in
  let nv = Graph.nv t.graph and ne = Graph.ne t.graph in
  (* A parsed solution may carry out-of-range ids (Check reports them):
     they repair nothing. *)
  List.iter
    (fun v -> if v >= 0 && v < nv then ignore (repair_vertex t v : bool))
    sol.Instance.repaired_vertices;
  List.iter
    (fun e -> if e >= 0 && e < ne then ignore (repair_edge t e : bool))
    sol.Instance.repaired_edges;
  t

(* The [const] of the §IV-D metric: the length of a working link. *)
let length_const = 1.0

let length t ~resid e =
  let u = t.src.(e) and v = t.dst.(e) in
  let ke = if t.broken_e.(e) then t.edge_cost.(e) else 0.0 in
  let kv w = if t.broken_v.(w) then t.vertex_cost.(w) else 0.0 in
  let c = Float.max resid.(e) Num.flow_eps in
  (length_const +. ke +. ((kv u +. kv v) /. 2.0)) /. c

let repaired_vertices t = List.sort compare t.vertices
let repaired_edges t = List.sort compare t.edges

let solution ?(routing = Routing.empty) t =
  { Instance.repaired_vertices = repaired_vertices t;
    repaired_edges = repaired_edges t;
    routing }
