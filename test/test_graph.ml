open Netrec_graph
module Rng = Netrec_util.Rng
module Obs = Netrec_obs.Obs

(* A small fixture: 6-vertex graph with a bottleneck.
      0 -- 1 -- 2
      |         |
      3 -- 4 -- 5     plus chord 1-4
   Capacities: all 10 except 1-4 which is 3. *)
let fixture () =
  Graph.make ~n:6
    ~edges:
      [ (0, 1, 10.0); (1, 2, 10.0); (0, 3, 10.0); (3, 4, 10.0); (4, 5, 10.0);
        (2, 5, 10.0); (1, 4, 3.0) ]
    ()

let unit_len _ = 1.0

(* ---- Graph construction ---- *)

let test_make_basic () =
  let g = fixture () in
  Alcotest.(check int) "nv" 6 (Graph.nv g);
  Alcotest.(check int) "ne" 7 (Graph.ne g);
  Alcotest.(check int) "degree of 1" 3 (Graph.degree g 1);
  Alcotest.(check int) "max degree" 3 (Graph.max_degree g)

let test_make_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.make: self-loop")
    (fun () -> ignore (Graph.make ~n:2 ~edges:[ (1, 1, 1.0) ] ()))

let test_make_rejects_bad_endpoint () =
  Alcotest.check_raises "endpoint"
    (Invalid_argument "Graph.make: endpoint out of range") (fun () ->
      ignore (Graph.make ~n:2 ~edges:[ (0, 2, 1.0) ] ()))

let test_make_rejects_negative_capacity () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Graph.make: negative capacity") (fun () ->
      ignore (Graph.make ~n:2 ~edges:[ (0, 1, -1.0) ] ()))

let test_other_end () =
  let g = fixture () in
  let e = Option.get (Graph.find_edge g 0 1) in
  Alcotest.(check int) "from 0" 1 (Graph.other_end g e 0);
  Alcotest.(check int) "from 1" 0 (Graph.other_end g e 1)

let test_find_edge () =
  let g = fixture () in
  Alcotest.(check bool) "found" true (Graph.find_edge g 1 4 <> None);
  Alcotest.(check bool) "missing" true (Graph.find_edge g 0 5 = None)

let test_parallel_edges () =
  let g = Graph.make ~n:2 ~edges:[ (0, 1, 1.0); (0, 1, 2.0) ] () in
  Alcotest.(check int) "two parallel" 2 (List.length (Graph.find_edges g 0 1));
  Alcotest.(check int) "degree counts both" 2 (Graph.degree g 0)

let test_total_capacity () =
  let g = fixture () in
  Alcotest.(check (float 1e-9)) "sum" 63.0 (Graph.total_capacity g)

(* The graph's text round trip is the instance format's [graph] section;
   the parsed edge list must print the same. *)
let test_edge_list_roundtrip () =
  let g = fixture () in
  let module Serialize = Netrec_core.Serialize in
  let inst =
    Netrec_core.Instance.make ~graph:g ~demands:[]
      ~failure:(Netrec_disrupt.Failure.none g) ()
  in
  let g' = (Serialize.of_string (Serialize.to_string inst)).graph in
  Alcotest.(check string) "edge list" (Graph.to_edge_list g)
    (Graph.to_edge_list g');
  Alcotest.(check int) "nv" (Graph.nv g) (Graph.nv g');
  Alcotest.(check int) "ne" (Graph.ne g) (Graph.ne g');
  List.iter2
    (fun a b ->
      Alcotest.(check int) "u" a.Graph.u b.Graph.u;
      Alcotest.(check int) "v" a.Graph.v b.Graph.v;
      Alcotest.(check (float 1e-9)) "cap" a.Graph.capacity b.Graph.capacity)
    (Graph.edges g) (Graph.edges g')

let test_names_coords () =
  let g =
    Graph.make ~names:[| "a"; "b" |] ~coords:[| (0.0, 0.0); (1.0, 1.0) |] ~n:2
      ~edges:[ (0, 1, 1.0) ] ()
  in
  Alcotest.(check string) "name" "b" (Graph.name g 1);
  Alcotest.(check bool) "coords" true (Graph.has_coords g);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "coord"
    (Some (1.0, 1.0)) (Graph.coord g 1)

(* ---- Graph storage against its reference ----

   The record-array build that the column storage replaced: one
   [Graph.edge] record per edge, coordinates as tuples, the CSR built
   from the records, and the validation of [Graph.make] and
   [Graph.of_columns] in their order (vertex count, names, coords,
   column lengths, then each edge: range, self-loop, capacity). *)
module Reference_graph = struct
  type t = {
    nv : int;
    edges : Graph.edge array;
    off : int array;
    nbr : int array;
    eid : int array;
    names : string array option;
    coords : (float * float) array option;
  }

  let build ?names ?coords ~n src dst cap =
    if n < 0 then invalid_arg "Graph.make: negative vertex count";
    (match names with
    | Some a when Array.length a <> n -> invalid_arg "Graph.make: names arity"
    | _ -> ());
    (match coords with
    | Some a when Array.length a <> n -> invalid_arg "Graph.make: coords arity"
    | _ -> ());
    let m = Array.length src in
    if Array.length dst <> m || Array.length cap <> m then
      invalid_arg "Graph.make: column lengths";
    let edges =
      Array.init m (fun id ->
          let u = src.(id) and v = dst.(id) and capacity = cap.(id) in
          if u < 0 || u >= n || v < 0 || v >= n then
            invalid_arg "Graph.make: endpoint out of range";
          if u = v then invalid_arg "Graph.make: self-loop";
          if capacity < 0.0 then invalid_arg "Graph.make: negative capacity";
          { Graph.id; u; v; capacity })
    in
    let off = Array.make (n + 1) 0 in
    Array.iter
      (fun e ->
        off.(e.Graph.u + 1) <- off.(e.Graph.u + 1) + 1;
        off.(e.Graph.v + 1) <- off.(e.Graph.v + 1) + 1)
      edges;
    for v = 0 to n - 1 do
      off.(v + 1) <- off.(v + 1) + off.(v)
    done;
    let nbr = Array.make (2 * m) 0 and eid = Array.make (2 * m) 0 in
    let cursor = Array.copy off in
    let place w other id =
      nbr.(cursor.(w)) <- other;
      eid.(cursor.(w)) <- id;
      cursor.(w) <- cursor.(w) + 1
    in
    Array.iter
      (fun e ->
        place e.Graph.u e.Graph.v e.Graph.id;
        place e.Graph.v e.Graph.u e.Graph.id)
      edges;
    { nv = n; edges; off; nbr; eid; names; coords }

  let name r v =
    match r.names with Some a -> a.(v) | None -> "v" ^ string_of_int v

  let coord r v = Option.map (fun a -> a.(v)) r.coords

  let max_degree r =
    let best = ref 0 in
    for v = 0 to r.nv - 1 do
      best := max !best (r.off.(v + 1) - r.off.(v))
    done;
    !best

  let to_edge_list r =
    String.concat ""
      (Array.to_list
         (Array.map
            (fun e -> Printf.sprintf "%d %d %g\n" e.Graph.u e.Graph.v e.Graph.capacity)
            r.edges))
end

(* Everything a graph shows of its storage, floats by their bits. *)
type shown = {
  s_nv : int;
  s_ne : int;
  s_edges : (int * int * int * int64) list;  (* id, u, v, capacity *)
  s_capacity : int64 list;
  s_endpoints : (int * int) list;
  s_csr : int array * int array * int array;
  s_names : string list;
  s_coords : (int64 * int64) option list;
  s_has_coords : bool;
  s_max_degree : int;
  s_edge_list : string;
}

let bits = Int64.bits_of_float
let bits2 = Option.map (fun (x, y) -> (bits x, bits y))

let show_graph g =
  let ne = Graph.ne g and vs = Graph.vertices g in
  let ids = List.init ne Fun.id in
  { s_nv = Graph.nv g;
    s_ne = ne;
    s_edges =
      List.map
        (fun id ->
          let e = Graph.edge g id in
          (e.Graph.id, e.Graph.u, e.Graph.v, bits e.Graph.capacity))
        ids;
    s_capacity = List.map (fun id -> bits (Graph.capacity g id)) ids;
    s_endpoints = List.map (Graph.endpoints g) ids;
    s_csr = Graph.csr g;
    s_names = List.map (Graph.name g) vs;
    s_coords = List.map (fun v -> bits2 (Graph.coord g v)) vs;
    s_has_coords = Graph.has_coords g;
    s_max_degree = Graph.max_degree g;
    s_edge_list = Graph.to_edge_list g }

let show_reference r =
  let module R = Reference_graph in
  let vs = List.init r.R.nv Fun.id in
  let edges = Array.to_list r.R.edges in
  { s_nv = r.R.nv;
    s_ne = Array.length r.R.edges;
    s_edges =
      List.map (fun e -> (e.Graph.id, e.Graph.u, e.Graph.v, bits e.Graph.capacity)) edges;
    s_capacity = List.map (fun e -> bits e.Graph.capacity) edges;
    s_endpoints = List.map (fun e -> (e.Graph.u, e.Graph.v)) edges;
    s_csr = (r.R.off, r.R.nbr, r.R.eid);
    s_names = List.map (R.name r) vs;
    s_coords = List.map (fun v -> bits2 (R.coord r v)) vs;
    s_has_coords = r.R.coords <> None;
    s_max_degree = R.max_degree r;
    s_edge_list = R.to_edge_list r }

let built f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* A random multigraph, sometimes invalid: parallel edges, isolated
   trailing vertices, n = 0, with and without names and coordinates; an
   endpoint out of range, a self-loop, a negative capacity, a names or
   coords array of the wrong length, or (for [of_columns]) a short
   column. *)
let graph_storage_prop =
  QCheck.Test.make ~name:"make = of_columns = record-array reference"
    ~count:1000 (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Rng.create (seed + 1) in
      let n = if Rng.bernoulli rng 0.1 then 0 else 1 + Rng.int rng 9 in
      let bad p = Rng.bernoulli rng p in
      let m = if n < 2 then (if bad 0.3 then 1 else 0) else Rng.int rng (3 * n) in
      (* endpoints in the first vertices only, so the last ones are
         often isolated; parallel edges come from the small range *)
      let span = max 1 (n - Rng.int rng 3) in
      let src = Array.make m 0 and dst = Array.make m 0 in
      let cap = Array.make m 0.0 in
      for e = 0 to m - 1 do
        let u = Rng.int rng span in
        let v = if span > 1 then (u + 1 + Rng.int rng (span - 1)) mod span else u in
        src.(e) <- (if bad 0.02 then n + Rng.int rng 2 else if bad 0.02 then -1 else u);
        dst.(e) <- (if bad 0.02 then src.(e) else v);
        cap.(e) <-
          (if bad 0.02 then -1.0
           else if Rng.bernoulli rng 0.1 then 0.0
           else Rng.float rng 20.0)
      done;
      let arity () = if bad 0.05 then n + 1 else n in
      let names =
        if Rng.bool rng then None
        else Some (Array.init (arity ()) (fun i -> Printf.sprintf "n%d" (i * 7)))
      in
      let coords =
        if Rng.bool rng then None
        else
          Some (Array.init (arity ()) (fun _ -> (Rng.float rng 1.0, -.Rng.float rng 1.0)))
      in
      let split a = (Array.map fst a, Array.map snd a) in
      let short a =
        if bad 0.05 && Array.length a > 0 then Array.sub a 0 (Array.length a - 1)
        else a
      in
      let csrc = short src and cdst = short dst and ccap = short cap in
      let reference src dst cap =
        built (fun () ->
            show_reference (Reference_graph.build ?names ?coords ~n src dst cap))
      in
      let columns =
        built (fun () ->
            show_graph
              (Graph.of_columns ?names ?coords:(Option.map split coords) ~n
                 ~src:(Array.copy csrc) ~dst:(Array.copy cdst)
                 ~capacity:(Array.copy ccap) ()))
      in
      let made =
        built (fun () ->
            show_graph
              (Graph.make ?names ?coords ~n
                 ~edges:(List.init m (fun e -> (src.(e), dst.(e), cap.(e))))
                 ()))
      in
      let report what = function
        | Ok _ -> what ^ " built"
        | Error m -> what ^ " raised " ^ m
      in
      if columns <> reference csrc cdst ccap then
        QCheck.Test.fail_reportf "of_columns: %s, reference: %s" (report "graph" columns)
          (report "reference" (reference csrc cdst ccap));
      if made <> reference src dst cap then
        QCheck.Test.fail_reportf "make: %s, reference: %s" (report "graph" made)
          (report "reference" (reference src dst cap));
      true)

(* ---- Traverse ---- *)

let test_bfs_dist () =
  let g = fixture () in
  let dist = Traverse.bfs_dist g 0 in
  Alcotest.(check int) "self" 0 dist.(0);
  Alcotest.(check int) "one hop" 1 dist.(1);
  Alcotest.(check int) "to 5" 3 dist.(5)

let test_bfs_respects_broken_vertex () =
  let g = fixture () in
  (* Break vertices 1 and 4: 0 and 2 disconnect. *)
  let vertex_ok v = v <> 1 && v <> 4 in
  let dist = Traverse.bfs_dist ~vertex_ok g 0 in
  Alcotest.(check bool) "2 unreachable" true (dist.(2) = max_int);
  Alcotest.(check int) "3 reachable" 1 dist.(3)

let test_bfs_respects_broken_edge () =
  let g = fixture () in
  let e01 = Option.get (Graph.find_edge g 0 1) in
  let e03 = Option.get (Graph.find_edge g 0 3) in
  let edge_ok e = e <> e01 && e <> e03 in
  Alcotest.(check bool) "isolated" false (Bidir.reachable ~edge_ok g 0 5)

let test_bfs_path_chains () =
  let g = fixture () in
  match Bidir.path ~tie:Bidir.Fifo g 0 5 with
  | None -> Alcotest.fail "expected path"
  | Some p ->
    Alcotest.(check int) "hops" 3 (List.length p);
    let vs = Paths.vertices_of g 0 p in
    Alcotest.(check int) "ends at 5" 5 (List.nth vs (List.length vs - 1))

let test_components () =
  let g = Graph.make ~n:5 ~edges:[ (0, 1, 1.0); (2, 3, 1.0) ] () in
  let comps = Traverse.components g in
  Alcotest.(check int) "three comps" 3 (List.length comps);
  let sizes = List.sort compare (List.map List.length comps) in
  Alcotest.(check (list int)) "sizes" [ 1; 2; 2 ] sizes

let test_giant_component () =
  let g = Graph.make ~n:5 ~edges:[ (0, 1, 1.0); (1, 2, 1.0); (3, 4, 1.0) ] () in
  Alcotest.(check int) "giant size" 3 (List.length (Traverse.giant_component g))

let test_is_connected () =
  Alcotest.(check bool) "fixture" true (Traverse.is_connected (fixture ()));
  let g = Graph.make ~n:3 ~edges:[ (0, 1, 1.0) ] () in
  Alcotest.(check bool) "disconnected" false (Traverse.is_connected g)

(* ---- Dijkstra ---- *)

let test_dijkstra_unit_lengths () =
  let g = fixture () in
  let dist = Dijkstra.distances ~length:unit_len g 0 in
  Alcotest.(check (float 1e-9)) "to 5" 3.0 dist.(5)

let test_dijkstra_weighted () =
  let g = fixture () in
  (* Make edge 1-4 very long: the path 0-1-4 should avoid the chord. *)
  let e14 = Option.get (Graph.find_edge g 1 4) in
  let length e = if e = e14 then 100.0 else 1.0 in
  let dist = Dijkstra.distances ~length g 1 in
  Alcotest.(check (float 1e-9)) "1 to 4 around" 3.0 dist.(4)

let test_dijkstra_path_endpoints () =
  let g = fixture () in
  match Dijkstra.shortest_path ~length:unit_len g 3 2 with
  | None -> Alcotest.fail "expected path"
  | Some p ->
    let vs = Paths.vertices_of g 3 p in
    Alcotest.(check int) "starts" 3 (List.hd vs);
    Alcotest.(check int) "ends" 2 (List.nth vs (List.length vs - 1))

let test_dijkstra_unreachable () =
  let g = Graph.make ~n:3 ~edges:[ (0, 1, 1.0) ] () in
  Alcotest.(check bool) "none" true
    (Dijkstra.shortest_path ~length:unit_len g 0 2 = None)

let test_dijkstra_negative_length_rejected () =
  let g = fixture () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Dijkstra: negative edge length") (fun () ->
      ignore (Dijkstra.distances ~length:(fun _ -> -1.0) g 0))

(* The search loop Dijkstra had before it walked CSR rows in a [for]
   loop, compared the target as an int and sifted its heap with a hole:
   kept verbatim as the reference the current loop must reproduce —
   dist, pred, path and the [dijkstra.settled] rise alike. *)
module Reference = struct
  let all _ = true

  type scratch = {
    mutable dist : float array;
    mutable pred : int array;
    mutable seen : int array;  (* seen.(v) = stamp: dist/pred valid *)
    mutable settled : int array;  (* settled.(v) = stamp: popped final *)
    mutable stamp : int;
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

  let heap_less s i j =
    s.hp.(i) < s.hp.(j) || (s.hp.(i) = s.hp.(j) && s.hv.(i) < s.hv.(j))

  let heap_swap s i j =
    let p = s.hp.(i) and v = s.hv.(i) in
    s.hp.(i) <- s.hp.(j);
    s.hv.(i) <- s.hv.(j);
    s.hp.(j) <- p;
    s.hv.(j) <- v

  let rec sift_up s i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if heap_less s i parent then begin
        heap_swap s i parent;
        sift_up s parent
      end
    end

  let rec sift_down s i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < s.hlen && heap_less s l !smallest then smallest := l;
    if r < s.hlen && heap_less s r !smallest then smallest := r;
    if !smallest <> i then begin
      heap_swap s i !smallest;
      sift_down s !smallest
    end

  let heap_push s p v =
    if s.hlen = Array.length s.hp then begin
      let cap = 2 * s.hlen in
      let hp = Array.make cap infinity and hv = Array.make cap 0 in
      Array.blit s.hp 0 hp 0 s.hlen;
      Array.blit s.hv 0 hv 0 s.hlen;
      s.hp <- hp;
      s.hv <- hv
    end;
    s.hp.(s.hlen) <- p;
    s.hv.(s.hlen) <- v;
    s.hlen <- s.hlen + 1;
    sift_up s (s.hlen - 1)

  (* Pop the minimum (priority, vertex) pair; -1 when empty. *)
  let heap_pop s =
    if s.hlen = 0 then -1
    else begin
      let v = s.hv.(0) in
      s.hlen <- s.hlen - 1;
      s.hp.(0) <- s.hp.(s.hlen);
      s.hv.(0) <- s.hv.(s.hlen);
      if s.hlen > 0 then sift_down s 0;
      v
    end

  (* Core search on pooled scratch.  Stops as soon as [target] (when
     given) is settled; every vertex settles at most once (a settled mark
     makes stale lazy-deletion heap entries skip, rather than re-expand as
     the old [d <= dist] test did). *)
  let search ?(vertex_ok = all) ?(edge_ok = all) ?target ~length g src =
    Obs.count "dijkstra.calls";
    let n = Graph.nv g in
    if src < 0 || src >= n then invalid_arg "Dijkstra: source out of range";
    (match target with
    | Some t when t < 0 || t >= n -> invalid_arg "Dijkstra: target out of range"
    | _ -> ());
    let s = scratch n in
    let stamp = s.stamp in
    let nsettled = ref 0 in
    if vertex_ok src then begin
      s.dist.(src) <- 0.0;
      s.pred.(src) <- -1;
      s.seen.(src) <- stamp;
      heap_push s 0.0 src;
      let stop = ref false in
      while not !stop do
        let u = heap_pop s in
        if u < 0 then stop := true
        else if s.settled.(u) <> stamp then begin
          s.settled.(u) <- stamp;
          incr nsettled;
          if target = Some u then stop := true
          else begin
            let d = s.dist.(u) in
            Graph.iter_incident g u (fun w e ->
                if vertex_ok w && edge_ok e then begin
                  let len = length e in
                  if len < 0.0 then
                    invalid_arg "Dijkstra: negative edge length";
                  let nd = d +. len in
                  if s.seen.(w) <> stamp || nd < s.dist.(w) then begin
                    s.dist.(w) <- nd;
                    s.pred.(w) <- e;
                    s.seen.(w) <- stamp;
                    heap_push s nd w
                  end
                end)
          end
        end
      done
    end;
    (* Batched per-call accounting: one table update instead of one per
       settle, and the per-call distribution feeds the tail-latency
       histograms. *)
    if !nsettled > 0 then Obs.count ~n:!nsettled "dijkstra.settled";
    Obs.observe "dijkstra.settled_per_call" (float_of_int !nsettled);
    s

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
end

(* Settle-at-most-once: the [dijkstra.settled] counter must equal the
   number of reachable vertices exactly, even on inputs engineered to
   leave many stale (decreased-key) entries in the heap.  The lazy
   deletion idiom would over-count here if the settled marks regressed. *)
let settled_counter f =
  let module Obs = Netrec_obs.Obs in
  Obs.set_enabled true;
  Obs.reset ();
  f ();
  let n = Obs.counter_value "dijkstra.settled" in
  Obs.reset ();
  Obs.set_enabled false;
  n

let test_dijkstra_settles_once_fixture () =
  let g = fixture () in
  let n =
    settled_counter (fun () -> ignore (Dijkstra.distances ~length:unit_len g 0))
  in
  Alcotest.(check int) "settled = reachable" 6 n

let test_dijkstra_settles_once_stale_heavy () =
  (* Complete graph where direct edges from the source are long and
     everything else is short: every vertex's key is decreased once per
     earlier-settled neighbour, flooding the heap with stale entries. *)
  let n = 12 in
  let g = Generate.complete ~n ~capacity:1.0 in
  let length e =
    let u, v = Graph.endpoints g e in
    if u = 0 || v = 0 then 50.0 +. float_of_int (max u v) else 1.0
  in
  let settled =
    settled_counter (fun () -> ignore (Dijkstra.distances ~length g 0))
  in
  Alcotest.(check int) "settled = n despite stale entries" n settled

let test_dijkstra_target_early_exit () =
  let g =
    Graph.make ~n:10
      ~edges:(List.init 9 (fun i -> (i, i + 1, 1.0)))
      ()
  in
  let dist = ref [||] in
  let settled =
    settled_counter (fun () ->
        let d, _pred = Dijkstra.run ~target:2 ~length:unit_len g 0 in
        dist := d)
  in
  Alcotest.(check (float 1e-9)) "target distance" 2.0 !dist.(2);
  Alcotest.(check bool) "stopped early" true (settled <= 3)

let dijkstra_target_matches_full_prop =
  QCheck.Test.make ~name:"dijkstra ?target distance = full sweep distance"
    ~count:50
    QCheck.(pair small_int small_int)
    (fun (seed, t) ->
      let rng = Rng.create (seed + 1) in
      let g = Generate.erdos_renyi ~rng ~n:20 ~p:0.2 ~capacity:1.0 in
      let length e = 1.0 +. float_of_int (e mod 7) in
      let target = t mod Graph.nv g in
      let full = Dijkstra.distances ~length g 0 in
      let dist, _ = Dijkstra.run ~target ~length g 0 in
      dist.(target) = full.(target))

let dijkstra_matches_bfs_prop =
  QCheck.Test.make ~name:"dijkstra with unit lengths = bfs hops" ~count:50
    QCheck.(pair small_int small_int)
    (fun (seed, _) ->
      let rng = Rng.create seed in
      let g = Generate.erdos_renyi ~rng ~n:20 ~p:0.2 ~capacity:1.0 in
      let bfs = Traverse.bfs_dist g 0 in
      let dij = Dijkstra.distances ~length:unit_len g 0 in
      Array.for_all2
        (fun b d ->
          if b = max_int then d = infinity else abs_float (d -. float_of_int b) < 1e-9)
        bfs dij)

(* Random weighted multigraphs for the search-loop properties: parallel
   edges, integer lengths with zeros (ties everywhere) or real ones, and
   random vertex and edge masks. *)
let weighted_multigraph seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 25 in
  let edges =
    if n < 2 then []
    else
      List.init (Rng.int rng (3 * n)) (fun _ ->
          let u = Rng.int rng n in
          (u, (u + 1 + Rng.int rng (n - 1)) mod n, 1.0))
  in
  let g = Graph.make ~n ~edges () in
  let integral = Rng.bool rng in
  let lens =
    Array.init (Graph.ne g) (fun _ ->
        if integral then float_of_int (Rng.int rng 4) else Rng.float rng 3.0)
  in
  let pv = Rng.float rng 0.3 and pe = Rng.float rng 0.3 in
  let vmask = Array.init n (fun _ -> not (Rng.bernoulli rng pv)) in
  let emask = Array.init (Graph.ne g) (fun _ -> not (Rng.bernoulli rng pe)) in
  (rng, g, Array.get lens, Array.get vmask, Array.get emask)

(* The rise of [dijkstra.settled] across [f ()], and its result. *)
let settled_rise f =
  let before = Obs.domain_counter_value "dijkstra.settled" in
  let r = f () in
  (r, Obs.domain_counter_value "dijkstra.settled" - before)

let with_collector f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let dijkstra_matches_reference_prop =
  QCheck.Test.make ~name:"dijkstra search = the reference loop" ~count:300
    QCheck.(int_bound 1_000_000) (fun seed ->
      with_collector @@ fun () ->
      let rng, g, length, vertex_ok, edge_ok = weighted_multigraph seed in
      let n = Graph.nv g in
      let same f reference =
        let got, settled = settled_rise f in
        let want, ref_settled = settled_rise reference in
        got = want && settled = ref_settled
      in
      List.for_all
        (fun _ ->
          let src = Rng.int rng n and dst = Rng.int rng n in
          let run target () =
            Dijkstra.run ~vertex_ok ~edge_ok ?target ~length g src
          and ref_run target () =
            Reference.run ~vertex_ok ~edge_ok ?target ~length g src
          in
          (* The whole search, then the one [shortest_path] runs, then the
             path walked along its predecessors (only once those agree,
             so a broken tree cannot send the walk round a cycle). *)
          same (run None) (ref_run None)
          && same (run (Some dst)) (ref_run (Some dst))
          && same
               (fun () ->
                 Dijkstra.shortest_path ~vertex_ok ~edge_ok ~length g src dst)
               (fun () ->
                 Reference.shortest_path ~vertex_ok ~edge_ok ~length g src dst))
        (List.init 8 Fun.id))

(* The gate search: several sources, one distance bound.  Below the bound
   it must equal the minimum over single-source runs; beyond it, it must
   read a lower bound past the bound and settle nothing. *)
let dijkstra_within_prop =
  QCheck.Test.make ~name:"dijkstra within = min of single-source runs"
    ~count:300 QCheck.(int_bound 1_000_000) (fun seed ->
      with_collector @@ fun () ->
      let rng, g, length, _, edge_ok = weighted_multigraph seed in
      let n = Graph.nv g in
      let sources = List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n) in
      let bound =
        match Rng.int rng 4 with
        | 0 -> infinity
        | 1 -> float_of_int (Rng.int rng 4)
        | _ -> Rng.float rng 6.0
      in
      let nearest =
        List.fold_left
          (fun acc s ->
            Array.map2 Float.min acc (Dijkstra.distances ~edge_ok ~length g s))
          (Array.make n infinity) sources
      in
      let d, settled =
        settled_rise (fun () -> Dijkstra.within ~edge_ok ~bound ~length g sources)
      in
      let inside =
        Array.fold_left
          (fun k m -> if m <= bound && m < infinity then k + 1 else k)
          0 nearest
      in
      settled = inside
      && Array.for_all2
           (fun got m -> if m <= bound then got = m else got > bound && got <= m)
           d nearest)

(* ---- Bidirectional hop search ---- *)

(* Random masked graphs where tie-breaks matter: multigraphs with
   parallel edges, grids (every shortest path ties) with vertex ids and
   edge order scrambled so discovery order and id order disagree, and
   small scale-free graphs; each under random vertex and edge masks. *)
let masked_graph seed =
  let rng = Rng.create seed in
  let g =
    match Rng.int rng 3 with
    | 0 ->
      let n = 2 + Rng.int rng 30 in
      let edges =
        List.init (Rng.int rng (3 * n)) (fun _ ->
            let u = Rng.int rng n in
            (u, (u + 1 + Rng.int rng (n - 1)) mod n, 1.0))
      in
      Graph.make ~n ~edges ()
    | 1 ->
      let grid =
        Generate.grid ~width:(1 + Rng.int rng 8) ~height:(1 + Rng.int rng 8)
          ~capacity:1.0
      in
      let n = Graph.nv grid in
      let perm = Array.init n Fun.id in
      Rng.shuffle rng perm;
      let edges =
        Array.of_list
          (List.map (fun e -> (perm.(e.Graph.u), perm.(e.Graph.v), 1.0))
             (Graph.edges grid))
      in
      Rng.shuffle rng edges;
      Graph.make ~n ~edges:(Array.to_list edges) ()
    | _ ->
      let m = 1 + Rng.int rng 3 in
      Generate.scale_free ~rng ~n:(m + 2 + Rng.int rng 60) ~m ~capacity:1.0 ()
  in
  let pv = Rng.float rng 0.3 and pe = Rng.float rng 0.3 in
  let vmask = Array.init (Graph.nv g) (fun _ -> not (Rng.bernoulli rng pv)) in
  let emask = Array.init (Graph.ne g) (fun _ -> not (Rng.bernoulli rng pe)) in
  (rng, g, (fun v -> vmask.(v)), fun e -> emask.(e))

(* [f] holds for 20 random (src, dst) pairs of a masked graph. *)
let for_random_pairs seed f =
  let rng, g, vertex_ok, edge_ok = masked_graph seed in
  let n = Graph.nv g in
  List.for_all
    (fun _ -> f g ~vertex_ok ~edge_ok (Rng.int rng n) (Rng.int rng n))
    (List.init 20 Fun.id)

(* The whole-graph FIFO BFS that [Bidir.path ~tie:Fifo] must reproduce:
   each vertex keeps the first (queue position, incidence slot) that
   discovers it. *)
let reference_bfs_path ~vertex_ok ~edge_ok g src dst =
  let pred = Array.make (Graph.nv g) (-2) (* -2 unseen, -1 source *) in
  let q = Queue.create () in
  if vertex_ok src then begin
    pred.(src) <- -1;
    Queue.add src q
  end;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (w, e) ->
        if pred.(w) = -2 && vertex_ok w && edge_ok e then begin
          pred.(w) <- e;
          Queue.add w q
        end)
      (Graph.incident g u)
  done;
  if pred.(dst) = -2 then None
  else
    let rec walk v acc =
      if v = src then acc
      else walk (Graph.other_end g pred.(v) v) (pred.(v) :: acc)
    in
    Some (walk dst [])

let bidir_hop_matches_dijkstra_prop =
  QCheck.Test.make ~name:"bidir By_id path = unit-length dijkstra path"
    ~count:300 QCheck.int (fun seed ->
      for_random_pairs seed (fun g ~vertex_ok ~edge_ok src dst ->
          Bidir.path ~vertex_ok ~edge_ok ~tie:Bidir.By_id g src dst
          = Dijkstra.shortest_path ~vertex_ok ~edge_ok ~length:unit_len g src
              dst))

let bfs_path_matches_reference_prop =
  QCheck.Test.make ~name:"bfs_path = reference FIFO BFS path" ~count:300
    QCheck.int (fun seed ->
      for_random_pairs seed (fun g ~vertex_ok ~edge_ok src dst ->
          Bidir.path ~vertex_ok ~edge_ok ~tie:Bidir.Fifo g src dst
          = reference_bfs_path ~vertex_ok ~edge_ok g src dst))

let reachable_matches_reference_prop =
  QCheck.Test.make ~name:"reachable = reference FIFO BFS finds a path"
    ~count:300 QCheck.int (fun seed ->
      for_random_pairs seed (fun g ~vertex_ok ~edge_ok src dst ->
          Bidir.reachable ~vertex_ok ~edge_ok g src dst
          = (reference_bfs_path ~vertex_ok ~edge_ok g src dst <> None)))

(* Components by one BFS distance row per unseen source. *)
let components_match_reference_prop =
  QCheck.Test.make ~name:"components = per-source BFS reference" ~count:300
    QCheck.int (fun seed ->
      let _, g, vertex_ok, edge_ok = masked_graph seed in
      let n = Graph.nv g in
      let seen = Array.make n false in
      let reference = ref [] in
      for src = 0 to n - 1 do
        if vertex_ok src && not seen.(src) then begin
          let dist = Traverse.bfs_dist ~vertex_ok ~edge_ok g src in
          let comp = List.filter (fun v -> dist.(v) < max_int) (List.init n Fun.id) in
          List.iter (fun v -> seen.(v) <- true) comp;
          reference := comp :: !reference
        end
      done;
      let reference = List.rev !reference in
      let ids = Traverse.component_ids ~vertex_ok ~edge_ok g in
      Traverse.components ~vertex_ok ~edge_ok g = reference
      && List.for_all2
           (fun i comp -> List.for_all (fun v -> ids.(v) = i) comp)
           (List.init (List.length reference) Fun.id)
           reference
      && Array.for_all2 (fun id s -> (id >= 0) = s) ids seen)

(* Every entry point of the search, on 0 - 1 - 2 plus a separate 3 - 4:
   the path searches return the edges, [reachable] whether there are
   any. *)
let test_bidir_edge_cases () =
  let g = Graph.make ~n:5 ~edges:[ (0, 1, 1.0); (1, 2, 1.0); (3, 4, 1.0) ] () in
  let all _ = true and not1 v = v <> 1 in
  let cases =
    [ ("src = dst", all, 2, 2, Some []);
      ("masked src = dst", not1, 1, 1, None);
      ("masked src", not1, 1, 2, None);
      ("masked dst", not1, 0, 1, None);
      ("cut by a masked vertex", not1, 0, 2, None);
      ("disconnected", all, 0, 4, None);
      ("path", all, 0, 2, Some [ 0; 1 ]) ]
  in
  let check_entry name fn check search =
    List.iter
      (fun (what, vertex_ok, src, dst, expected) ->
        check (name ^ ": " ^ what) expected (search vertex_ok g src dst))
      cases;
    Alcotest.check_raises (name ^ ": src out of range")
      (Invalid_argument (fn ^ ": source out of range")) (fun () ->
        ignore (search all g 5 0));
    Alcotest.check_raises (name ^ ": dst out of range")
      (Invalid_argument (fn ^ ": target out of range")) (fun () ->
        ignore (search all g 0 (-1)))
  in
  List.iter
    (fun (name, search) ->
      check_entry name "Bidir.path" Alcotest.(check (option (list int))) search)
    [ ("By_id", fun vertex_ok g -> Bidir.path ~vertex_ok ~tie:Bidir.By_id g);
      ("Fifo", fun vertex_ok g -> Bidir.path ~vertex_ok ~tie:Bidir.Fifo g) ];
  check_entry "reachable" "Bidir.reachable"
    (fun what expected got -> Alcotest.(check bool) what (expected <> None) got)
    (fun vertex_ok g -> Bidir.reachable ~vertex_ok g)

(* The point of the search.  Vertex 0 has 30 neighbours with 30 leaves
   each (961 vertices within two hops) and reaches the target over a
   thin 3-hop path.  Growing the cheaper frontier walks the path from
   the target and never enters the dense side (75 incidences scanned,
   vertex 0's own 31 twice among them); a one-sided search from 0
   scans 1,905.  Reachability stops at the first touch (5 incidences),
   and with the path's middle edge masked, 933's ball runs out after
   its 2-vertex island (3 incidences) without entering the dense side. *)
let test_bidir_grows_the_cheap_side () =
  let module Obs = Netrec_obs.Obs in
  let hubs = List.init 30 (fun i -> (0, 1 + i, 1.0)) in
  let leaves =
    List.concat
      (List.init 30 (fun i -> List.init 30 (fun j -> (1 + i, 31 + (30 * i) + j, 1.0))))
  in
  let path = [ (0, 931, 1.0); (931, 932, 1.0); (932, 933, 1.0) ] in
  let g = Graph.make ~n:934 ~edges:(hubs @ leaves @ path) () in
  (* [f ()] and the search counters it left. *)
  let counted f =
    Obs.set_enabled true;
    Obs.reset ();
    let r = f () in
    let counters =
      List.map Obs.counter_value
        [ "bidir.calls"; "bidir.scanned"; "bidir.reach_calls";
          "bidir.reach_scanned" ]
    in
    Obs.reset ();
    Obs.set_enabled false;
    (r, counters)
  in
  (match counted (fun () -> Bidir.path ~tie:Bidir.By_id g 0 933) with
  | p, [ calls; scanned; 0; 0 ] ->
    Alcotest.(check (option (list int))) "path" (Some [ 930; 931; 932 ]) p;
    Alcotest.(check int) "one call" 1 calls;
    Alcotest.(check bool)
      (Printf.sprintf "scanned %d incidences, not the dense side" scanned)
      true (scanned <= 100)
  | _ -> Alcotest.fail "path: reachability counters moved");
  (match counted (fun () -> Bidir.reachable g 0 933) with
  | r, [ 0; 0; calls; scanned ] ->
    Alcotest.(check bool) "reachable" true r;
    Alcotest.(check int) "one reachability call" 1 calls;
    Alcotest.(check bool)
      (Printf.sprintf "reachability scanned %d incidences" scanned)
      true (scanned <= 100)
  | _ -> Alcotest.fail "reachable: path counters moved");
  (* Edge 931 is 931 - 932: the 30 hub and 900 leaf edges come first. *)
  match counted (fun () -> Bidir.reachable ~edge_ok:(fun e -> e <> 931) g 0 933) with
  | r, [ _; _; _; scanned ] ->
    Alcotest.(check bool) "island cut off" false r;
    Alcotest.(check int) "scanned only the island's incidences" 3 scanned
  | _ -> assert false

(* ---- Maxflow ---- *)

let test_maxflow_two_disjoint_paths () =
  let g = fixture () in
  (* 0 -> 5: disjoint paths 0-1-2-5 (10) and 0-3-4-5 (10), chord adds nothing. *)
  let v = Maxflow.max_flow_value g ~source:0 ~sink:5 in
  Alcotest.(check (float 1e-6)) "flow 20" 20.0 v

let test_maxflow_bottleneck () =
  let g =
    Graph.make ~n:4
      ~edges:[ (0, 1, 10.0); (1, 2, 2.0); (2, 3, 10.0) ] ()
  in
  Alcotest.(check (float 1e-6)) "bottleneck" 2.0
    (Maxflow.max_flow_value g ~source:0 ~sink:3)

let test_maxflow_disconnected () =
  let g = Graph.make ~n:3 ~edges:[ (0, 1, 5.0) ] () in
  Alcotest.(check (float 1e-9)) "zero" 0.0
    (Maxflow.max_flow_value g ~source:0 ~sink:2)

let test_maxflow_same_vertex () =
  let g = fixture () in
  Alcotest.(check (float 1e-9)) "zero" 0.0
    (Maxflow.max_flow_value g ~source:2 ~sink:2)

let test_maxflow_respects_cap_fn () =
  let g = fixture () in
  let cap _ = 1.0 in
  Alcotest.(check (float 1e-6)) "uniform caps" 2.0
    (Maxflow.max_flow_value ~cap g ~source:0 ~sink:5)

let test_maxflow_respects_broken () =
  let g = fixture () in
  let vertex_ok v = v <> 1 in
  Alcotest.(check (float 1e-6)) "one path left" 10.0
    (Maxflow.max_flow_value ~vertex_ok g ~source:0 ~sink:5)

let test_maxflow_conservation () =
  let g = fixture () in
  let { Maxflow.edge_flow; value } = Maxflow.max_flow g ~source:0 ~sink:5 in
  (* Net flow into each internal vertex is zero; source emits [value]. *)
  let net = Array.make (Graph.nv g) 0.0 in
  List.iter
    (fun e ->
      net.(e.Graph.u) <- net.(e.Graph.u) -. edge_flow.(e.Graph.id);
      net.(e.Graph.v) <- net.(e.Graph.v) +. edge_flow.(e.Graph.id))
    (Graph.edges g);
  Alcotest.(check (float 1e-6)) "source" (-.value) net.(0);
  Alcotest.(check (float 1e-6)) "sink" value net.(5);
  List.iter
    (fun v ->
      if v <> 0 && v <> 5 then
        Alcotest.(check (float 1e-6)) "internal" 0.0 net.(v))
    (Graph.vertices g)

let test_min_cut_value_matches () =
  let g = fixture () in
  let side, crossing = Maxflow.min_cut g ~source:0 ~sink:5 in
  Alcotest.(check bool) "source in side" true (List.mem 0 side);
  Alcotest.(check bool) "sink not in side" false (List.mem 5 side);
  let cut_cap =
    List.fold_left (fun acc e -> acc +. Graph.capacity g e) 0.0 crossing
  in
  Alcotest.(check (float 1e-6)) "duality" 20.0 cut_cap

let test_decompose_reconstructs_value () =
  let g = fixture () in
  let res = Maxflow.max_flow g ~source:0 ~sink:5 in
  let paths = Maxflow.decompose g ~source:0 ~sink:5 res in
  let total = List.fold_left (fun acc (_, a) -> acc +. a) 0.0 paths in
  Alcotest.(check (float 1e-6)) "sums to value" res.Maxflow.value total;
  List.iter
    (fun (p, _) ->
      let vs = Paths.vertices_of g 0 p in
      Alcotest.(check int) "ends at sink" 5 (List.nth vs (List.length vs - 1)))
    paths

(* Dinic keeps residuals, levels and cursors in per-domain scratch, so a
   call must not see what an earlier call on a larger or a smaller graph
   left there, nor what a call on another domain is doing.  Each query
   answered in a domain of its own, on fresh scratch, is the reference:
   the same queries interleaved large, small, large on one domain, and
   spread over a 4-domain pool, must give the same bits. *)
type flow_query = {
  qg : Graph.t;
  vmask : bool array;
  emask : bool array;
  caps : float array;
  qs : Graph.vertex;
  qt : Graph.vertex;
}

let flow_queries () =
  let rng = Rng.create 11 in
  let large =
    Generate.preferential_attachment ~rng ~n:600 ~extra_edges:300
      ~capacity:10.0
  in
  let small = fixture () in
  let st = Random.State.make [| 5 |] in
  let query g =
    let n = Graph.nv g and m = Graph.ne g in
    { qg = g;
      vmask = Array.init n (fun _ -> Random.State.int st 10 > 0);
      emask = Array.init m (fun _ -> Random.State.int st 10 > 0);
      caps = Array.init m (fun _ -> 1.0 +. Random.State.float st 9.0);
      qs = Random.State.int st n;
      qt = Random.State.int st n }
  in
  Array.init 24 (fun i -> query (if i mod 3 = 1 then small else large))

let solve_query q =
  let vertex_ok v = q.vmask.(v) and edge_ok e = q.emask.(e) in
  let cap e = q.caps.(e) in
  let r =
    Maxflow.max_flow ~vertex_ok ~edge_ok ~cap q.qg ~source:q.qs ~sink:q.qt
  in
  let v =
    Maxflow.max_flow_value ~vertex_ok ~edge_ok ~cap q.qg ~source:q.qs
      ~sink:q.qt
  in
  ( Int64.bits_of_float v,
    Int64.bits_of_float r.Maxflow.value,
    Array.map Int64.bits_of_float r.Maxflow.edge_flow )

let test_maxflow_scratch_isolation () =
  let queries = flow_queries () in
  let fresh =
    Array.map
      (fun q -> Domain.join (Domain.spawn (fun () -> solve_query q)))
      queries
  in
  Alcotest.(check bool) "some flows are positive" true
    (Array.exists (fun (v, _, _) -> Int64.float_of_bits v > 1.0) fresh);
  Array.iter
    (fun (v, v', _) -> Alcotest.(check int64) "value = max_flow.value" v v')
    fresh;
  let same what got =
    Array.iteri
      (fun i r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s query %d" what i)
          true (r = fresh.(i)))
      got
  in
  same "interleaved" (Array.map solve_query queries);
  let pool = Netrec_parallel.Pool.create ~jobs:4 in
  same "4 domains"
    (Netrec_parallel.Pool.map pool (fun _ q -> solve_query q) queries)

let maxflow_equals_mincut_prop =
  QCheck.Test.make ~name:"maxflow value = min cut capacity (strong duality)"
    ~count:30 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 50) in
      let g = Generate.erdos_renyi ~rng ~n:10 ~p:0.35 ~capacity:4.0 in
      let n = Graph.nv g in
      let v = Maxflow.max_flow_value g ~source:0 ~sink:(n - 1) in
      let _, crossing = Maxflow.min_cut g ~source:0 ~sink:(n - 1) in
      let cut_cap =
        List.fold_left (fun acc e -> acc +. Graph.capacity g e) 0.0 crossing
      in
      abs_float (v -. cut_cap) < 1e-6)

let maxflow_cut_duality_prop =
  QCheck.Test.make ~name:"maxflow <= any s-t cut (random graphs)" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g = Generate.erdos_renyi ~rng ~n:12 ~p:0.3 ~capacity:5.0 in
      if Graph.ne g = 0 then true
      else begin
        let v = Maxflow.max_flow_value g ~source:0 ~sink:(Graph.nv g - 1) in
        (* Trivial cut: edges incident to the source. *)
        let cut =
          List.fold_left
            (fun acc (_, e) -> acc +. Graph.capacity g e)
            0.0 (Graph.incident g 0)
        in
        v <= cut +. 1e-6
      end)

let decompose_total_prop =
  QCheck.Test.make ~name:"flow decomposition sums to the flow value"
    ~count:30 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 77) in
      let g = Generate.erdos_renyi ~rng ~n:10 ~p:0.4 ~capacity:3.0 in
      let n = Graph.nv g in
      let res = Maxflow.max_flow g ~source:0 ~sink:(n - 1) in
      let paths = Maxflow.decompose g ~source:0 ~sink:(n - 1) res in
      let total = List.fold_left (fun acc (_, a) -> acc +. a) 0.0 paths in
      abs_float (total -. res.Maxflow.value) < 1e-6)

let dijkstra_triangle_prop =
  QCheck.Test.make ~name:"dijkstra satisfies the triangle inequality"
    ~count:20 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 99) in
      let g = Generate.erdos_renyi ~rng ~n:12 ~p:0.3 ~capacity:1.0 in
      let length e = 0.5 +. (float_of_int (e mod 7) /. 3.0) in
      let d0 = Dijkstra.distances ~length g 0 in
      List.for_all
        (fun v ->
          d0.(v) = infinity
          || List.for_all
               (fun (w, e) -> d0.(w) <= d0.(v) +. length e +. 1e-9)
               (Graph.incident g v))
        (Graph.vertices g))

(* ---- Paths ---- *)

let test_path_capacity () =
  let g = fixture () in
  let e01 = Option.get (Graph.find_edge g 0 1) in
  let e14 = Option.get (Graph.find_edge g 1 4) in
  Alcotest.(check (float 1e-9)) "bottleneck" 3.0
    (Paths.capacity ~cap:(Graph.capacity g) [ e01; e14 ]);
  Alcotest.(check (float 1e-9)) "empty" infinity
    (Paths.capacity ~cap:(Graph.capacity g) [])

let test_path_length () =
  Alcotest.(check (float 1e-9)) "sum" 3.0
    (Paths.length ~length:(fun _ -> 1.5) [ 0; 1 ])

let test_shortest_bundle_covers_demand () =
  let g = fixture () in
  let bundle =
    Paths.shortest_bundle ~length:unit_len ~cap:(Graph.capacity g) ~demand:15.0
      g 0 5
  in
  Alcotest.(check bool) "covered" true (bundle.Paths.covered >= 15.0);
  (* All shortest paths have 3 hops here; depending on tie-breaking the
     bundle needs 2 or 3 of them to cover 15 units. *)
  let np = List.length bundle.Paths.paths in
  Alcotest.(check bool) "few paths" true (np = 2 || np = 3)

let test_shortest_bundle_exhausts () =
  let g = Graph.make ~n:2 ~edges:[ (0, 1, 4.0) ] () in
  let bundle =
    Paths.shortest_bundle ~length:unit_len ~cap:(Graph.capacity g) ~demand:10.0
      g 0 1
  in
  Alcotest.(check (float 1e-9)) "partial" 4.0 bundle.Paths.covered

let test_through_excludes_endpoints () =
  let g = fixture () in
  let p = Option.get (Bidir.path ~tie:Bidir.Fifo g 0 2) in
  Alcotest.(check bool) "interior" true (Paths.through g 0 2 1 p);
  Alcotest.(check bool) "endpoint i" false (Paths.through g 0 2 0 p);
  Alcotest.(check bool) "endpoint j" false (Paths.through g 0 2 2 p)

let test_is_simple () =
  let g = fixture () in
  let p = Option.get (Bidir.path ~tie:Bidir.Fifo g 0 5) in
  Alcotest.(check bool) "bfs path simple" true (Paths.is_simple g 0 p)

(* ---- Generators ---- *)

let test_er_extremes () =
  let rng = Rng.create 1 in
  let empty = Generate.erdos_renyi ~rng ~n:10 ~p:0.0 ~capacity:1.0 in
  Alcotest.(check int) "p=0 no edges" 0 (Graph.ne empty);
  let full = Generate.erdos_renyi ~rng ~n:10 ~p:1.0 ~capacity:1.0 in
  Alcotest.(check int) "p=1 clique" 45 (Graph.ne full)

let test_er_deterministic () =
  let g1 = Generate.erdos_renyi ~rng:(Rng.create 5) ~n:30 ~p:0.2 ~capacity:1.0 in
  let g2 = Generate.erdos_renyi ~rng:(Rng.create 5) ~n:30 ~p:0.2 ~capacity:1.0 in
  Alcotest.(check int) "same edges" (Graph.ne g1) (Graph.ne g2);
  Alcotest.(check string) "same structure" (Graph.to_edge_list g1)
    (Graph.to_edge_list g2)

let test_preferential_attachment_size () =
  let rng = Rng.create 2 in
  let g = Generate.preferential_attachment ~rng ~n:825 ~extra_edges:194 ~capacity:22.0 in
  Alcotest.(check int) "nv" 825 (Graph.nv g);
  Alcotest.(check int) "ne" 1018 (Graph.ne g);
  Alcotest.(check bool) "connected" true (Traverse.is_connected g)

let test_scale_free_deterministic () =
  let gen seed =
    Generate.scale_free ~rng:(Rng.create seed) ~n:700 ~m:2 ~capacity:15.0 ()
  in
  Alcotest.(check string)
    "same seed, byte-identical edge list"
    (Graph.to_edge_list (gen 42))
    (Graph.to_edge_list (gen 42));
  Alcotest.(check bool)
    "different seed, different graph" false
    (Graph.to_edge_list (gen 42) = Graph.to_edge_list (gen 43))

let test_scale_free_shape () =
  let n = 1000 and m = 2 in
  let g = Generate.scale_free ~rng:(Rng.create 7) ~n ~m ~capacity:15.0 () in
  Alcotest.(check int) "nv" n (Graph.nv g);
  (* seed path on m+1 vertices, then m attachments per later vertex *)
  Alcotest.(check int) "ne" (m + ((n - m - 1) * m)) (Graph.ne g);
  Alcotest.(check bool) "connected" true (Traverse.is_connected g);
  (* Degree distribution sanity: mean ~2m by construction; preferential
     attachment must have grown hubs far beyond the attachment count. *)
  let mean = 2.0 *. float_of_int (Graph.ne g) /. float_of_int n in
  Alcotest.(check bool) "mean degree ~2m" true (Float.abs (mean -. 4.0) < 0.1);
  Alcotest.(check bool) "heavy tail (hub degree >> m)" true
    (Graph.max_degree g >= 8 * m)

let test_scale_free_coords () =
  let g = Generate.scale_free ~rng:(Rng.create 5) ~n:400 ~m:3 ~capacity:1.0 () in
  Alcotest.(check bool) "has coords" true (Graph.has_coords g);
  List.iter
    (fun v ->
      match Graph.coord g v with
      | None -> Alcotest.failf "vertex %d lost its coordinate" v
      | Some (x, y) ->
        if x < 0.0 || x > 1.0 || y < 0.0 || y > 1.0 then
          Alcotest.failf "vertex %d outside the unit square: (%g, %g)" v x y)
    (Graph.vertices g)

let test_scale_free_rejects_bad_args () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "n < 2 rejected" true
    (bad (fun () ->
         Generate.scale_free ~rng:(Rng.create 1) ~n:1 ~m:1 ~capacity:1.0 ()));
  Alcotest.(check bool) "m < 1 rejected" true
    (bad (fun () ->
         Generate.scale_free ~rng:(Rng.create 1) ~n:10 ~m:0 ~capacity:1.0 ()))

let test_grid_structure () =
  let g = Generate.grid ~width:3 ~height:4 ~capacity:2.0 in
  Alcotest.(check int) "nv" 12 (Graph.nv g);
  Alcotest.(check int) "ne" ((2 * 4) + (3 * 3)) (Graph.ne g);
  Alcotest.(check bool) "connected" true (Traverse.is_connected g)

let test_ring_structure () =
  let g = Generate.ring ~n:7 ~capacity:1.0 in
  Alcotest.(check int) "ne" 7 (Graph.ne g);
  List.iter
    (fun v -> Alcotest.(check int) "degree 2" 2 (Graph.degree g v))
    (Graph.vertices g)

let test_complete_structure () =
  let g = Generate.complete ~n:6 ~capacity:1.0 in
  Alcotest.(check int) "ne" 15 (Graph.ne g)

let test_largest_component_extraction () =
  let g = Graph.make ~n:6 ~edges:[ (0, 1, 1.0); (1, 2, 1.0); (3, 4, 2.0) ] () in
  let giant = Generate.largest_component g in
  Alcotest.(check int) "nv" 3 (Graph.nv giant);
  Alcotest.(check int) "ne" 2 (Graph.ne giant)

(* ---- Metrics ---- *)

let test_diameter () =
  let g = Generate.ring ~n:8 ~capacity:1.0 in
  Alcotest.(check int) "ring diameter" 4 (Metrics.hop_diameter g)

let test_hop_distance () =
  let g = fixture () in
  Alcotest.(check int) "0 to 5" 3 (Metrics.hop_distance g 0 5)

let test_density () =
  let g = Generate.complete ~n:5 ~capacity:1.0 in
  Alcotest.(check (float 1e-9)) "clique density" 1.0 (Metrics.density g)

let test_betweenness_star () =
  (* Star with 3 leaves: the hub lies on all C(3,2)=3 leaf pairs. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 1.0); (0, 2, 1.0); (0, 3, 1.0) ] ()
  in
  let b = Metrics.betweenness g in
  Alcotest.(check (float 1e-9)) "hub" 3.0 b.(0);
  Alcotest.(check (float 1e-9)) "leaf" 0.0 b.(1)

let test_betweenness_path () =
  (* On P5 vertex i separates i*(4-i) pairs: [0;3;4;3;0]. *)
  let g =
    Graph.make ~n:5
      ~edges:[ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 4, 1.0) ] ()
  in
  let b = Metrics.betweenness g in
  Alcotest.(check (float 1e-9)) "v1" 3.0 b.(1);
  Alcotest.(check (float 1e-9)) "v2" 4.0 b.(2);
  Alcotest.(check (float 1e-9)) "endpoint" 0.0 b.(0)

let test_betweenness_cycle_split () =
  (* On C4 the two shortest paths between opposite vertices split the
     credit: every vertex scores 1/2. *)
  let g =
    Graph.make ~n:4
      ~edges:[ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 0, 1.0) ] ()
  in
  let b = Metrics.betweenness g in
  Array.iter (fun x -> Alcotest.(check (float 1e-9)) "half" 0.5 x) b

let test_betweenness_clique_zero () =
  let g = Generate.complete ~n:5 ~capacity:1.0 in
  let b = Metrics.betweenness g in
  Array.iter (fun x -> Alcotest.(check (float 1e-9)) "zero" 0.0 x) b

let test_degree_histogram () =
  let g = Generate.ring ~n:5 ~capacity:1.0 in
  Alcotest.(check (list (pair int int))) "all degree 2" [ (2, 5) ]
    (Metrics.degree_histogram g)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netrec_graph"
    [ ( "graph",
        [ tc "make basic" test_make_basic;
          tc "rejects self loop" test_make_rejects_self_loop;
          tc "rejects bad endpoint" test_make_rejects_bad_endpoint;
          tc "rejects negative capacity" test_make_rejects_negative_capacity;
          tc "other_end" test_other_end;
          tc "find_edge" test_find_edge;
          tc "parallel edges" test_parallel_edges;
          tc "total capacity" test_total_capacity;
          tc "edge list roundtrip" test_edge_list_roundtrip;
          tc "names and coords" test_names_coords;
          QCheck_alcotest.to_alcotest graph_storage_prop ] );
      ( "traverse",
        [ tc "bfs dist" test_bfs_dist;
          tc "broken vertex" test_bfs_respects_broken_vertex;
          tc "broken edge" test_bfs_respects_broken_edge;
          tc "bfs path chains" test_bfs_path_chains;
          tc "components" test_components;
          tc "giant component" test_giant_component;
          tc "is_connected" test_is_connected ] );
      ( "dijkstra",
        [ tc "unit lengths" test_dijkstra_unit_lengths;
          tc "weighted" test_dijkstra_weighted;
          tc "path endpoints" test_dijkstra_path_endpoints;
          tc "unreachable" test_dijkstra_unreachable;
          tc "negative rejected" test_dijkstra_negative_length_rejected;
          tc "settles once (fixture)" test_dijkstra_settles_once_fixture;
          tc "settles once (stale-heavy)" test_dijkstra_settles_once_stale_heavy;
          tc "target early exit" test_dijkstra_target_early_exit;
          QCheck_alcotest.to_alcotest dijkstra_target_matches_full_prop;
          QCheck_alcotest.to_alcotest dijkstra_matches_bfs_prop;
          QCheck_alcotest.to_alcotest dijkstra_triangle_prop;
          QCheck_alcotest.to_alcotest dijkstra_matches_reference_prop;
          QCheck_alcotest.to_alcotest dijkstra_within_prop ] );
      ( "bidir",
        [ tc "edge cases" test_bidir_edge_cases;
          tc "grows the cheap side" test_bidir_grows_the_cheap_side;
          QCheck_alcotest.to_alcotest bidir_hop_matches_dijkstra_prop;
          QCheck_alcotest.to_alcotest bfs_path_matches_reference_prop;
          QCheck_alcotest.to_alcotest reachable_matches_reference_prop;
          QCheck_alcotest.to_alcotest components_match_reference_prop ] );
      ( "maxflow",
        [ tc "two disjoint paths" test_maxflow_two_disjoint_paths;
          tc "bottleneck" test_maxflow_bottleneck;
          tc "disconnected" test_maxflow_disconnected;
          tc "same vertex" test_maxflow_same_vertex;
          tc "cap function" test_maxflow_respects_cap_fn;
          tc "broken vertex" test_maxflow_respects_broken;
          tc "conservation" test_maxflow_conservation;
          tc "scratch: interleaved and 4 domains"
            test_maxflow_scratch_isolation;
          tc "min cut duality" test_min_cut_value_matches;
          tc "decompose" test_decompose_reconstructs_value;
          QCheck_alcotest.to_alcotest maxflow_cut_duality_prop;
          QCheck_alcotest.to_alcotest maxflow_equals_mincut_prop;
          QCheck_alcotest.to_alcotest decompose_total_prop ] );
      ( "paths",
        [ tc "capacity" test_path_capacity;
          tc "length" test_path_length;
          tc "bundle covers demand" test_shortest_bundle_covers_demand;
          tc "bundle exhausts" test_shortest_bundle_exhausts;
          tc "through excludes endpoints" test_through_excludes_endpoints;
          tc "is_simple" test_is_simple ] );
      ( "generate",
        [ tc "er extremes" test_er_extremes;
          tc "er deterministic" test_er_deterministic;
          tc "preferential attachment" test_preferential_attachment_size;
          tc "scale free deterministic" test_scale_free_deterministic;
          tc "scale free shape" test_scale_free_shape;
          tc "scale free coords" test_scale_free_coords;
          tc "scale free bad args" test_scale_free_rejects_bad_args;
          tc "grid" test_grid_structure;
          tc "ring" test_ring_structure;
          tc "complete" test_complete_structure;
          tc "largest component" test_largest_component_extraction ] );
      ( "metrics",
        [ tc "diameter" test_diameter;
          tc "hop distance" test_hop_distance;
          tc "density" test_density;
          tc "betweenness star" test_betweenness_star;
          tc "betweenness path" test_betweenness_path;
          tc "betweenness cycle" test_betweenness_cycle_split;
          tc "betweenness clique" test_betweenness_clique_zero;
          tc "degree histogram" test_degree_histogram ] ) ]
