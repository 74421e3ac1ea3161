module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
module Routing = Netrec_flow.Routing
module Oracle = Netrec_flow.Oracle

type t = {
  graph : Graph.t;
  demands : Commodity.t list;
  failure : Failure.t;
  vertex_cost : float array;
  edge_cost : float array;
}

let make ?vertex_cost ?edge_cost ~graph ~demands ~failure () =
  let nv = Graph.nv graph and ne = Graph.ne graph in
  let vertex_cost =
    match vertex_cost with None -> Array.make nv 1.0 | Some a -> a
  in
  let edge_cost =
    match edge_cost with None -> Array.make ne 1.0 | Some a -> a
  in
  if Array.length vertex_cost <> nv then
    invalid_arg "Instance.make: vertex_cost arity";
  if Array.length edge_cost <> ne then
    invalid_arg "Instance.make: edge_cost arity";
  if Array.length failure.Failure.broken_vertices <> nv
     || Array.length failure.Failure.broken_edges <> ne
  then invalid_arg "Instance.make: failure arity";
  List.iter
    (fun d ->
      if d.Commodity.src < 0 || d.Commodity.src >= nv
         || d.Commodity.dst < 0 || d.Commodity.dst >= nv
      then invalid_arg "Instance.make: demand endpoint out of range";
      if d.Commodity.amount <= 0.0 then
        invalid_arg "Instance.make: non-positive demand")
    demands;
  { graph; demands; failure; vertex_cost; edge_cost }

let feasible_when_repaired t =
  match
    Oracle.routable ~cap:(Graph.capacity t.graph) t.graph t.demands
  with
  | Oracle.Routable _ -> true
  | Oracle.Unroutable | Oracle.Unknown -> false

type solution = {
  repaired_vertices : Graph.vertex list;
  repaired_edges : Graph.edge_id list;
  routing : Routing.t;
}

let empty_solution =
  { repaired_vertices = []; repaired_edges = []; routing = Routing.empty }

let repair_cost t s =
  List.fold_left (fun acc v -> acc +. t.vertex_cost.(v)) 0.0 s.repaired_vertices
  +. List.fold_left (fun acc e -> acc +. t.edge_cost.(e)) 0.0 s.repaired_edges

let vertex_repairs s = List.length s.repaired_vertices
let edge_repairs s = List.length s.repaired_edges
let total_repairs s = vertex_repairs s + edge_repairs s

let repair_all t =
  { repaired_vertices = Failure.broken_vertex_list t.failure;
    repaired_edges = Failure.broken_edge_list t.failure;
    routing = Routing.empty }

let with_candidate_links t specs =
  let g = t.graph in
  let n = Graph.nv g in
  let old_edges =
    List.map (fun e -> (e.Graph.u, e.Graph.v, e.Graph.capacity)) (Graph.edges g)
  in
  let new_edges = List.map (fun (u, v, cap, _) -> (u, v, cap)) specs in
  let names = Some (Array.init n (Graph.name g)) in
  let coords =
    if Graph.has_coords g then
      Some (Array.init n (fun v -> Option.get (Graph.coord g v)))
    else None
  in
  let graph =
    Graph.make ?names ?coords ~n ~edges:(old_edges @ new_edges) ()
  in
  let ne_old = Graph.ne g in
  let candidate_ids = List.mapi (fun i _ -> ne_old + i) specs in
  let broken_edges =
    Array.init (Graph.ne graph) (fun e ->
        if e < ne_old then t.failure.Failure.broken_edges.(e) else true)
  in
  let failure =
    { Failure.broken_vertices = Array.copy t.failure.Failure.broken_vertices;
      broken_edges }
  in
  let edge_cost =
    Array.init (Graph.ne graph) (fun e ->
        if e < ne_old then t.edge_cost.(e)
        else
          let _, _, _, cost = List.nth specs (e - ne_old) in
          cost)
  in
  ( { graph;
      demands = t.demands;
      failure;
      vertex_cost = Array.copy t.vertex_cost;
      edge_cost },
    candidate_ids )
