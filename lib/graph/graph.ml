type vertex = int
type edge_id = int

type edge = { id : edge_id; u : vertex; v : vertex; capacity : float }

type t = {
  nv : int;
  (* Edge [e] joins [src.(e)] and [dst.(e)] with nominal capacity
     [cap.(e)]: two int columns and a float column, which OCaml stores
     unboxed.  An [edge] record is built only when asked for. *)
  src : int array;
  dst : int array;
  cap : float array;
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
  coords : (float array * float array) option;  (* x and y columns *)
}

let check_shape ?names ?coords n =
  if n < 0 then invalid_arg "Graph.make: negative vertex count";
  (match names with
  | Some a when Array.length a <> n -> invalid_arg "Graph.make: names arity"
  | _ -> ());
  match coords with
  | Some (xs, ys) when Array.length xs <> n || Array.length ys <> n ->
    invalid_arg "Graph.make: coords arity"
  | _ -> ()

let of_columns ?names ?coords ~n ~src ~dst ~capacity () =
  check_shape ?names ?coords n;
  let m = Array.length src in
  if Array.length dst <> m || Array.length capacity <> m then
    invalid_arg "Graph.make: column lengths";
  for e = 0 to m - 1 do
    let u = src.(e) and v = dst.(e) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.make: endpoint out of range";
    if u = v then invalid_arg "Graph.make: self-loop";
    if capacity.(e) < 0.0 then invalid_arg "Graph.make: negative capacity"
  done;
  (* Two-pass CSR build: count degrees, prefix-sum into offsets, then fill
     slots in increasing edge id so each row is in edge-id order. *)
  let adj_off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    adj_off.(src.(e) + 1) <- adj_off.(src.(e) + 1) + 1;
    adj_off.(dst.(e) + 1) <- adj_off.(dst.(e) + 1) + 1
  done;
  for v = 0 to n - 1 do
    adj_off.(v + 1) <- adj_off.(v + 1) + adj_off.(v)
  done;
  let adj_v = Array.make (2 * m) 0 in
  let adj_e = Array.make (2 * m) 0 in
  let cursor = Array.copy adj_off in
  for e = 0 to m - 1 do
    let u = src.(e) and v = dst.(e) in
    let ku = cursor.(u) in
    adj_v.(ku) <- v;
    adj_e.(ku) <- e;
    cursor.(u) <- ku + 1;
    let kv = cursor.(v) in
    adj_v.(kv) <- u;
    adj_e.(kv) <- e;
    cursor.(v) <- kv + 1
  done;
  { nv = n; src; dst; cap = capacity; adj_off; adj_v; adj_e; names; coords }

let make ?names ?coords ~n ~edges () =
  let m = List.length edges in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let capacity = Array.make m 0.0 in
  List.iteri
    (fun e (u, v, c) ->
      src.(e) <- u;
      dst.(e) <- v;
      capacity.(e) <- c)
    edges;
  let coords = Option.map (fun a -> (Array.map fst a, Array.map snd a)) coords in
  of_columns ?names ?coords ~n ~src ~dst ~capacity ()

let nv g = g.nv
let ne g = Array.length g.src

let check_edge g id =
  if id < 0 || id >= Array.length g.src then
    invalid_arg "Graph.edge: id out of range"

let edge g id =
  check_edge g id;
  { id; u = g.src.(id); v = g.dst.(id); capacity = g.cap.(id) }

let edges g = List.init (ne g) (edge g)

let capacity g id =
  check_edge g id;
  g.cap.(id)

let endpoints g id =
  check_edge g id;
  (g.src.(id), g.dst.(id))

let other_end g id w =
  check_edge g id;
  if g.src.(id) = w then g.dst.(id)
  else if g.dst.(id) = w then g.src.(id)
  else invalid_arg "Graph.other_end: vertex not an endpoint"

let columns g = (g.src, g.dst, g.cap)

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
  match g.coords with Some (xs, ys) -> Some (xs.(v), ys.(v)) | None -> None

let has_coords g = g.coords <> None

let vertices g = List.init g.nv (fun i -> i)

let fold_edges f g init =
  let acc = ref init in
  for e = 0 to ne g - 1 do
    acc := f (edge g e) !acc
  done;
  !acc

let total_capacity g = Array.fold_left ( +. ) 0.0 g.cap

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
  for e = 0 to ne g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  %d -- %d [label=\"%g\"];\n" g.src.(e) g.dst.(e) g.cap.(e))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_edge_list g =
  let buf = Buffer.create 1024 in
  for e = 0 to ne g - 1 do
    Buffer.add_string buf (Printf.sprintf "%d %d %g\n" g.src.(e) g.dst.(e) g.cap.(e))
  done;
  Buffer.contents buf
