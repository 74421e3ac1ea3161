type vertex = int
type edge_id = int

type edge = { id : edge_id; u : vertex; v : vertex; capacity : float }

type t = {
  nv : int;
  edge_arr : edge array;
  (* CSR-packed adjacency: the incidence slots of vertex [v] are
     [adj_off.(v) .. adj_off.(v+1) - 1]; slot [k] holds neighbor
     [adj_v.(k)] reached over edge [adj_e.(k)].  Each row is sorted by
     edge id, matching the list adjacency this layout replaced, so
     traversal order (and therefore every tie-break downstream) is
     unchanged. *)
  adj_off : int array;
  adj_v : int array;
  adj_e : int array;
  names : string array option;
  coords : (float * float) array option;
}

let checked_edge ~n id u v capacity =
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Graph.make: endpoint out of range";
  if u = v then invalid_arg "Graph.make: self-loop";
  if capacity < 0.0 then invalid_arg "Graph.make: negative capacity";
  { id; u; v; capacity }

let check_shape ?names ?coords n =
  if n < 0 then invalid_arg "Graph.make: negative vertex count";
  (match names with
  | Some a when Array.length a <> n -> invalid_arg "Graph.make: names arity"
  | _ -> ());
  match coords with
  | Some a when Array.length a <> n -> invalid_arg "Graph.make: coords arity"
  | _ -> ()

let of_records ?names ?coords ~n edge_arr =
  let m = Array.length edge_arr in
  (* Two-pass CSR build: count degrees, prefix-sum into offsets, then fill
     slots in increasing edge id so each row is in edge-id order. *)
  let adj_off = Array.make (n + 1) 0 in
  Array.iter
    (fun e ->
      adj_off.(e.u + 1) <- adj_off.(e.u + 1) + 1;
      adj_off.(e.v + 1) <- adj_off.(e.v + 1) + 1)
    edge_arr;
  for v = 0 to n - 1 do
    adj_off.(v + 1) <- adj_off.(v + 1) + adj_off.(v)
  done;
  let adj_v = Array.make (2 * m) 0 in
  let adj_e = Array.make (2 * m) 0 in
  let cursor = Array.copy adj_off in
  Array.iter
    (fun e ->
      let ku = cursor.(e.u) in
      adj_v.(ku) <- e.v;
      adj_e.(ku) <- e.id;
      cursor.(e.u) <- ku + 1;
      let kv = cursor.(e.v) in
      adj_v.(kv) <- e.u;
      adj_e.(kv) <- e.id;
      cursor.(e.v) <- kv + 1)
    edge_arr;
  { nv = n; edge_arr; adj_off; adj_v; adj_e; names; coords }

let of_edge_array ?names ?coords ~n edges =
  check_shape ?names ?coords n;
  of_records ?names ?coords ~n
    (Array.mapi (fun id (u, v, c) -> checked_edge ~n id u v c) edges)

let of_columns ?names ?coords ~n ~src ~dst ~capacity () =
  check_shape ?names ?coords n;
  let m = Array.length src in
  if Array.length dst <> m || Array.length capacity <> m then
    invalid_arg "Graph.make: column lengths";
  of_records ?names ?coords ~n
    (Array.init m (fun id -> checked_edge ~n id src.(id) dst.(id) capacity.(id)))

let make ?names ?coords ~n ~edges () =
  of_edge_array ?names ?coords ~n (Array.of_list edges)

let nv g = g.nv
let ne g = Array.length g.edge_arr

let edge g id =
  if id < 0 || id >= Array.length g.edge_arr then
    invalid_arg "Graph.edge: id out of range";
  g.edge_arr.(id)

let edges g = Array.to_list g.edge_arr
let capacity g id = (edge g id).capacity

let endpoints g id =
  let e = edge g id in
  (e.u, e.v)

let other_end g id w =
  let e = edge g id in
  if e.u = w then e.v
  else if e.v = w then e.u
  else invalid_arg "Graph.other_end: vertex not an endpoint"

let check_incident g v op =
  if v < 0 || v >= g.nv then invalid_arg ("Graph." ^ op ^ ": vertex out of range")

let iter_incident g v f =
  check_incident g v "iter_incident";
  for k = g.adj_off.(v) to g.adj_off.(v + 1) - 1 do
    f g.adj_v.(k) g.adj_e.(k)
  done

let fold_incident g v f init =
  check_incident g v "fold_incident";
  let acc = ref init in
  for k = g.adj_off.(v) to g.adj_off.(v + 1) - 1 do
    acc := f !acc g.adj_v.(k) g.adj_e.(k)
  done;
  !acc

let csr g = (g.adj_off, g.adj_v, g.adj_e)

let incident g v =
  check_incident g v "incident";
  let rec build k acc =
    if k < g.adj_off.(v) then acc
    else build (k - 1) ((g.adj_v.(k), g.adj_e.(k)) :: acc)
  in
  build (g.adj_off.(v + 1) - 1) []

let neighbors g v = List.map fst (incident g v)

let degree g v =
  check_incident g v "degree";
  g.adj_off.(v + 1) - g.adj_off.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.nv - 1 do
    best := max !best (g.adj_off.(v + 1) - g.adj_off.(v))
  done;
  !best

let find_edges g u v =
  List.rev
    (fold_incident g u (fun acc w e -> if w = v then e :: acc else acc) [])

let find_edge g u v =
  match find_edges g u v with [] -> None | e :: _ -> Some e

let name g v =
  match g.names with
  | Some a -> a.(v)
  | None -> "v" ^ string_of_int v

let coord g v =
  match g.coords with Some a -> Some a.(v) | None -> None

let has_coords g = g.coords <> None

let vertices g = List.init g.nv (fun i -> i)

let fold_edges f g init = Array.fold_left (fun acc e -> f e acc) init g.edge_arr

let total_capacity g = fold_edges (fun e acc -> acc +. e.capacity) g 0.0

let to_dot g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph supply {\n";
  for v = 0 to g.nv - 1 do
    let pos =
      match coord g v with
      | Some (x, y) -> Printf.sprintf " pos=\"%g,%g!\"" x y
      | None -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "  %d [label=\"%s\"%s];\n" v (name g v) pos)
  done;
  Array.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %d -- %d [label=\"%g\"];\n" e.u e.v e.capacity))
    g.edge_arr;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_edge_list g =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun e -> Buffer.add_string buf (Printf.sprintf "%d %d %g\n" e.u e.v e.capacity))
    g.edge_arr;
  Buffer.contents buf
