module Rng = Netrec_util.Rng

let unit_square_coords ~rng n =
  Array.init n (fun _ ->
      let x = Rng.float rng 1.0 in
      let y = Rng.float rng 1.0 in
      (x, y))

let erdos_renyi ~rng ~n ~p ~capacity =
  let coords = unit_square_coords ~rng n in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng p then edges := (u, v, capacity) :: !edges
    done
  done;
  Graph.make ~coords ~n ~edges:(List.rev !edges) ()

let preferential_attachment ~rng ~n ~extra_edges ~capacity =
  if n < 2 then invalid_arg "Generate.preferential_attachment: n < 2";
  let coords = unit_square_coords ~rng n in
  (* Endpoint multiset: picking a uniform element gives degree-proportional
     selection (each edge contributes both endpoints). *)
  let stubs = ref [ 0; 1 ] in
  let edge_set = Hashtbl.create (2 * n) in
  let key u v = if u < v then (u, v) else (v, u) in
  let edges = ref [ (0, 1, capacity) ] in
  Hashtbl.replace edge_set (key 0 1) ();
  let add_edge u v =
    edges := (u, v, capacity) :: !edges;
    Hashtbl.replace edge_set (key u v) ();
    stubs := u :: v :: !stubs
  in
  for v = 2 to n - 1 do
    let stub_arr = Array.of_list !stubs in
    let target = stub_arr.(Rng.int rng (Array.length stub_arr)) in
    add_edge target v
  done;
  let stub_arr () = Array.of_list !stubs in
  let attempts = ref 0 in
  let added = ref 0 in
  let max_attempts = 100 * (extra_edges + 1) in
  while !added < extra_edges && !attempts < max_attempts do
    incr attempts;
    let arr = stub_arr () in
    let u = arr.(Rng.int rng (Array.length arr)) in
    let v = arr.(Rng.int rng (Array.length arr)) in
    if u <> v && not (Hashtbl.mem edge_set (key u v)) then begin
      add_edge u v;
      incr added
    end
  done;
  Graph.make ~coords ~n ~edges:(List.rev !edges) ()

(* Barabási–Albert preferential attachment at scale: the endpoint
   multiset lives in one flat int array (every edge contributes both
   endpoints), so a degree-proportional draw is a single uniform index —
   O(n * m) total, no per-vertex array rebuild.  Coordinates are
   geographic: seed vertices are uniform in the unit square and every
   later vertex lands a Gaussian [jitter] away from its first attachment
   target, so edges are mostly short and a geographically-correlated
   disaster hits a topologically local region — the property the
   disaster-region sharding of the xl solver relies on. *)
let scale_free ~rng ?(jitter = 0.03) ~n ~m ~capacity () =
  if n < 2 then invalid_arg "Generate.scale_free: n < 2";
  if m < 1 then invalid_arg "Generate.scale_free: m < 1";
  let m = min m (n - 1) in
  let m0 = m + 1 in
  (* seed path on m0 vertices *)
  let ne_total = (m0 - 1) + ((n - m0) * m) in
  let src = Array.make ne_total 0 and dst = Array.make ne_total 0 in
  let targets = Array.make (max 2 (2 * ne_total)) 0 in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  (* A coordinate comes in as a pair expression so that its two draws run
     in the order that fixes every seeded topology: OCaml evaluates a
     pair's components right to left. *)
  let place v (x, y) =
    xs.(v) <- x;
    ys.(v) <- y
  in
  let tlen = ref 0 in
  let elen = ref 0 in
  let push_edge u v =
    src.(!elen) <- u;
    dst.(!elen) <- v;
    incr elen;
    targets.(!tlen) <- u;
    targets.(!tlen + 1) <- v;
    tlen := !tlen + 2
  in
  for v = 0 to m0 - 1 do
    place v (Rng.float rng 1.0, Rng.float rng 1.0);
    if v > 0 then push_edge (v - 1) v
  done;
  let clamp x = Float.min 1.0 (Float.max 0.0 x) in
  let chosen = Array.make m (-1) in
  for v = m0 to n - 1 do
    for k = 0 to m - 1 do
      (* Degree-proportional draw, retried on duplicates; after a bounded
         number of collisions (heavy hubs on tiny graphs) fall back to
         uniform vertex draws, which always terminate since fewer than
         [v] candidates are excluded. *)
      let rec draw attempts =
        let candidate =
          if attempts < 32 then targets.(Rng.int rng !tlen)
          else Rng.int rng v
        in
        let dup = ref false in
        for j = 0 to k - 1 do
          if chosen.(j) = candidate then dup := true
        done;
        if !dup then draw (attempts + 1) else candidate
      in
      chosen.(k) <- draw 0
    done;
    let tx = xs.(chosen.(0)) and ty = ys.(chosen.(0)) in
    let jx, jy = Rng.gaussian2 rng in
    place v (clamp (tx +. (jitter *. jx)), clamp (ty +. (jitter *. jy)));
    for k = 0 to m - 1 do
      push_edge chosen.(k) v
    done
  done;
  Graph.of_columns ~coords:(xs, ys) ~n ~src ~dst
    ~capacity:(Array.make ne_total capacity) ()

let grid ~width ~height ~capacity =
  if width < 1 || height < 1 then invalid_arg "Generate.grid: empty";
  let n = width * height in
  let id x y = (y * width) + x in
  let coords =
    Array.init n (fun i ->
        (float_of_int (i mod width), float_of_int (i / width)))
  in
  let edges = ref [] in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if x + 1 < width then edges := (id x y, id (x + 1) y, capacity) :: !edges;
      if y + 1 < height then edges := (id x y, id x (y + 1), capacity) :: !edges
    done
  done;
  Graph.make ~coords ~n ~edges:(List.rev !edges) ()

let ring ~n ~capacity =
  if n < 3 then invalid_arg "Generate.ring: n < 3";
  let coords =
    Array.init n (fun i ->
        let a = 2.0 *. Float.pi *. float_of_int i /. float_of_int n in
        (cos a, sin a))
  in
  let edges = List.init n (fun i -> (i, (i + 1) mod n, capacity)) in
  Graph.make ~coords ~n ~edges ()

let complete ~n ~capacity =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v, capacity) :: !edges
    done
  done;
  Graph.make ~n ~edges:(List.rev !edges) ()

let largest_component g =
  let comp = Traverse.giant_component g in
  let n = List.length comp in
  let remap = Hashtbl.create n in
  List.iteri (fun i v -> Hashtbl.replace remap v i) comp;
  let keep v = Hashtbl.mem remap v in
  let edges =
    Graph.fold_edges
      (fun e acc ->
        if keep e.Graph.u && keep e.Graph.v then
          (Hashtbl.find remap e.Graph.u, Hashtbl.find remap e.Graph.v, e.Graph.capacity)
          :: acc
        else acc)
      g []
    |> List.rev
  in
  let coords =
    if Graph.has_coords g then
      Some
        (Array.of_list
           (List.map (fun v -> Option.get (Graph.coord g v)) comp))
    else None
  in
  let names = Some (Array.of_list (List.map (Graph.name g) comp)) in
  Graph.make ?coords ?names:(if n = 0 then None else names) ~n ~edges ()
