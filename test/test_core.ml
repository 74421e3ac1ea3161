open Netrec_graph
open Netrec_core
module Rng = Netrec_util.Rng
module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
module Routing = Netrec_flow.Routing

let path_graph ?(capacity = 10.0) n =
  Graph.make ~n ~edges:(List.init (n - 1) (fun i -> (i, i + 1, capacity))) ()

(* The 6-vertex bottleneck fixture. *)
let fixture () =
  Graph.make ~n:6
    ~edges:
      [ (0, 1, 10.0); (1, 2, 10.0); (0, 3, 10.0); (3, 4, 10.0); (4, 5, 10.0);
        (2, 5, 10.0); (1, 4, 3.0) ]
    ()

let demand ?(amount = 5.0) src dst = Commodity.make ~src ~dst ~amount

let make_inst ?vertex_cost ?edge_cost g demands failure =
  Instance.make ?vertex_cost ?edge_cost ~graph:g ~demands ~failure ()

(* ---- Instance ---- *)

let test_instance_defaults () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.none g) in
  Alcotest.(check (float 1e-9)) "unit vertex cost" 1.0 inst.Instance.vertex_cost.(0);
  Alcotest.(check (float 1e-9)) "unit edge cost" 1.0 inst.Instance.edge_cost.(0)

let test_instance_rejects_bad_demand () =
  let g = fixture () in
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Instance.make: demand endpoint out of range") (fun () ->
      ignore (make_inst g [ demand 0 99 ] (Failure.none g)))

let test_instance_feasible_when_repaired () =
  let g = fixture () in
  Alcotest.(check bool) "feasible" true
    (Instance.feasible_when_repaired
       (make_inst g [ demand ~amount:20.0 0 5 ] (Failure.complete g)));
  Alcotest.(check bool) "infeasible" false
    (Instance.feasible_when_repaired
       (make_inst g [ demand ~amount:21.0 0 5 ] (Failure.complete g)))

let test_solution_counters () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  let sol =
    { Instance.repaired_vertices = [ 0; 1 ];
      repaired_edges = [ 0 ];
      routing = Routing.empty }
  in
  Alcotest.(check int) "v" 2 (Instance.vertex_repairs sol);
  Alcotest.(check int) "e" 1 (Instance.edge_repairs sol);
  Alcotest.(check int) "total" 3 (Instance.total_repairs sol);
  Alcotest.(check (float 1e-9)) "cost" 3.0 (Instance.repair_cost inst sol)

let test_repair_cost_heterogeneous () =
  let g = fixture () in
  let vertex_cost = Array.make (Graph.nv g) 2.5 in
  let edge_cost = Array.make (Graph.ne g) 4.0 in
  let inst =
    make_inst ~vertex_cost ~edge_cost g [ demand 0 5 ] (Failure.complete g)
  in
  let sol =
    { Instance.repaired_vertices = [ 3 ];
      repaired_edges = [ 2 ];
      routing = Routing.empty }
  in
  Alcotest.(check (float 1e-9)) "cost" 6.5 (Instance.repair_cost inst sol)

let test_repaired_predicates () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  let sol =
    { Instance.repaired_vertices = [ 0; 1 ];
      repaired_edges = [ 0 ];
      routing = Routing.empty }
  in
  let rep = Repairs.of_solution inst sol in
  Alcotest.(check bool) "v repaired" true (Repairs.vertex_ok rep 0);
  Alcotest.(check bool) "v broken" false (Repairs.vertex_ok rep 2);
  (* edge 0 = (0,1): both endpoints repaired -> usable *)
  Alcotest.(check bool) "edge usable" true (Repairs.edge_ok rep 0);
  (* edge 1 = (1,2): endpoint 2 still broken *)
  Alcotest.(check bool) "edge endpoint broken" false (Repairs.edge_ok rep 1)

let test_valid_rejects_unbroken_repairs () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.none g) in
  let sol =
    { Instance.repaired_vertices = [ 0 ];
      repaired_edges = [];
      routing = Routing.empty }
  in
  Alcotest.(check bool) "invalid" false (Evaluate.valid inst sol)

let test_valid_rejects_duplicates () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  let sol =
    { Instance.repaired_vertices = [ 0; 0 ];
      repaired_edges = [];
      routing = Routing.empty }
  in
  Alcotest.(check bool) "invalid" false (Evaluate.valid inst sol)

let test_repair_all () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  let sol = Instance.repair_all inst in
  Alcotest.(check int) "everything" (Graph.nv g + Graph.ne g)
    (Instance.total_repairs sol);
  Alcotest.(check bool) "valid" true (Evaluate.valid inst sol)

(* ---- Centrality ---- *)

let unit_len _ = 1.0

let test_centrality_path_interior () =
  let g = path_graph 4 in
  let c =
    Centrality.compute ~length:unit_len ~cap:(Graph.capacity g) g
      [ demand 0 3 ]
  in
  (* Interior vertices 1,2 receive the full demand weight; endpoints 0. *)
  Alcotest.(check (float 1e-9)) "interior 1" 5.0 c.Centrality.score.(1);
  Alcotest.(check (float 1e-9)) "interior 2" 5.0 c.Centrality.score.(2);
  Alcotest.(check (float 1e-9)) "endpoint" 0.0 c.Centrality.score.(0)

let test_centrality_splits_over_paths () =
  (* Two equal disjoint 2-hop paths between 0 and 3: each midpoint gets
     half the demand. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 10.0); (1, 3, 10.0); (0, 2, 10.0); (2, 3, 10.0) ] ()
  in
  let c =
    Centrality.compute ~length:unit_len ~cap:(Graph.capacity g) g
      [ demand ~amount:8.0 0 3 ]
  in
  (* The bundle needs only the first path (cap 10 >= 8), so one midpoint
     takes everything - the other is zero.  Exactly the paper's P*
     semantics: stop once accumulated capacity covers the demand. *)
  let s1 = c.Centrality.score.(1) and s2 = c.Centrality.score.(2) in
  Alcotest.(check (float 1e-9)) "total weight" 8.0 (s1 +. s2);
  Alcotest.(check bool) "single path" true (s1 = 0.0 || s2 = 0.0)

let test_centrality_uses_both_paths_when_needed () =
  (* Demand 15 > single path capacity 10: both midpoints contribute,
     proportionally to path capacity. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 10.0); (1, 3, 10.0); (0, 2, 10.0); (2, 3, 10.0) ] ()
  in
  let c =
    Centrality.compute ~length:unit_len ~cap:(Graph.capacity g) g
      [ demand ~amount:15.0 0 3 ]
  in
  Alcotest.(check (float 1e-9)) "midpoint 1" 7.5 c.Centrality.score.(1);
  Alcotest.(check (float 1e-9)) "midpoint 2" 7.5 c.Centrality.score.(2)

let test_centrality_best_and_contributors () =
  let g = path_graph 4 in
  let d = demand 0 3 in
  let c =
    Centrality.compute ~length:unit_len ~cap:(Graph.capacity g) g [ d ]
  in
  (match Centrality.best c with
  | Some v -> Alcotest.(check bool) "interior" true (v = 1 || v = 2)
  | None -> Alcotest.fail "expected a best vertex");
  let contribs = Centrality.contributors g c 1 in
  Alcotest.(check int) "one contributor" 1 (List.length contribs);
  let cap = Centrality.paths_capacity_through g (List.hd contribs) 1 in
  Alcotest.(check (float 1e-9)) "capacity through" 10.0 cap

let test_centrality_no_demands () =
  let g = path_graph 4 in
  let c = Centrality.compute ~length:unit_len ~cap:(Graph.capacity g) g [] in
  Alcotest.(check bool) "no best" true (Centrality.best c = None)

let test_centrality_length_metric_bias () =
  (* Two 2-hop paths; make one much longer: only the short one is used. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 10.0); (1, 3, 10.0); (0, 2, 10.0); (2, 3, 10.0) ] ()
  in
  let length e = if e < 2 then 1.0 else 100.0 in
  let c =
    Centrality.compute ~length ~cap:(Graph.capacity g) g [ demand 0 3 ]
  in
  Alcotest.(check bool) "short path favoured" true
    (c.Centrality.score.(1) > 0.0 && c.Centrality.score.(2) = 0.0)

(* Exactness of the incremental cache (DESIGN §11): after any sequence
   of worsen/improve metric changes reported through Cache, the cached
   computation must agree bit-for-bit with a from-scratch one — scores
   and per-demand bundles alike. *)
let same_centrality a b =
  a.Centrality.score = b.Centrality.score
  && List.length a.Centrality.contributions
     = List.length b.Centrality.contributions
  && List.for_all2
       (fun ca cb ->
         ca.Centrality.demand = cb.Centrality.demand
         && ca.Centrality.bundle.Paths.paths = cb.Centrality.bundle.Paths.paths
         && ca.Centrality.bundle.Paths.covered
            = cb.Centrality.bundle.Paths.covered)
       a.Centrality.contributions b.Centrality.contributions

let centrality_incremental_prop =
  QCheck.Test.make
    ~name:"incremental centrality = from-scratch under random op sequences"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 17) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:18 ~p:0.25 ~capacity:10.0
      in
      let ne = Graph.ne g and nv = Graph.nv g in
      if ne = 0 then true
      else begin
        let pick_pair () =
          let src = Rng.int rng nv in
          let dst = (src + 1 + Rng.int rng (nv - 1)) mod nv in
          Commodity.make ~src ~dst
            ~amount:(1.0 +. float_of_int (Rng.int rng 4))
        in
        let demands = List.init 3 (fun _ -> pick_pair ()) in
        let length = Array.make ne 1.0 in
        let resid = Array.make ne 10.0 in
        let cache = Centrality.Cache.create () in
        let agree () =
          let inc =
            Centrality.compute ~cache ~length:(Array.get length)
              ~cap:(Array.get resid) g demands
          in
          let scratch =
            Centrality.compute ~length:(Array.get length)
              ~cap:(Array.get resid) g demands
          in
          same_centrality inc scratch
        in
        let ok = ref (agree ()) in
        for _ = 1 to 12 do
          if !ok then begin
            let e = Rng.int rng ne in
            if Rng.int rng 4 = 0 then begin
              (* improve: an element gets cheaper again, like a repair *)
              length.(e) <- 1.0;
              resid.(e) <- 10.0;
              Centrality.Cache.note_improved cache (fst (Graph.endpoints g e))
            end
            else begin
              (* worsen: a committed prune consumes residual capacity *)
              length.(e) <- length.(e) +. 1.0;
              resid.(e) <- resid.(e) /. 2.0;
              Centrality.Cache.note_worse cache e
            end;
            ok := agree ()
          end
        done;
        !ok
      end)

let isp_cache_bit_identical_prop =
  QCheck.Test.make
    ~name:"isp solution identical with incremental centrality on/off"
    ~count:12 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 31) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:12 ~p:0.3 ~capacity:10.0
      in
      if not (Traverse.is_connected g) then true
      else begin
        let n = Graph.nv g in
        let demands =
          [ Commodity.make ~src:0 ~dst:(n - 1) ~amount:3.0;
            Commodity.make ~src:1 ~dst:(n - 2) ~amount:2.0 ]
        in
        let inst = make_inst g demands (Failure.complete g) in
        if not (Instance.feasible_when_repaired inst) then true
        else begin
          let agree config =
            let on, _ = Isp.solve ~config inst in
            let off, _ =
              Isp.solve
                ~config:{ config with Isp.incremental_centrality = false }
                inst
            in
            compare on off = 0
          in
          agree Isp.default_config
          && agree { Isp.default_config with Isp.length_mode = Isp.Hop }
        end
      end)

(* Repair-aware invalidation (DESIGN §11): after every reported change —
   a worsened edge, a vertex repair (every incident length drops) or an
   edge repair (its length drops and its capacity may grow, reported at
   either endpoint) — the cached computation must equal a from-scratch
   one.  Lengths are real, or integral with zeros (ties, and paths of
   length 0), and demands of up to 20 units over capacities of 0–8 often
   exceed every cut, so their bundles stop short, and an edge repair can
   then open a path over an edge that had no capacity.  Across the run some
   lookup right after a repair must hit, or the property would hold
   without the gate search ever keeping a bundle. *)
let test_centrality_repair_aware () =
  let module Obs = Netrec_obs.Obs in
  let hits_after_repair = ref 0 in
  let prop =
    QCheck.Test.make ~count:300
      ~name:"repair-aware centrality cache = from-scratch"
      QCheck.(int_bound 1_000_000)
      (fun seed ->
        let rng = Rng.create seed in
        let n = 4 + Rng.int rng 12 in
        let pair () =
          let u = Rng.int rng n in
          (u, (u + 1 + Rng.int rng (n - 1)) mod n)
        in
        let edges =
          List.init (n + Rng.int rng (2 * n)) (fun _ ->
              let u, v = pair () in
              (u, v, float_of_int (Rng.int rng 9)))
        in
        let g = Graph.make ~n ~edges () in
        let integral = Rng.bool rng in
        let length =
          Array.init (Graph.ne g) (fun _ ->
              if integral then float_of_int (Rng.int rng 4)
              else Rng.float rng 3.0)
        in
        let cap = Array.init (Graph.ne g) (Graph.capacity g) in
        let drop x =
          if integral then Float.max 0.0 (x -. 1.0) else x *. Rng.float rng 1.0
        in
        let demands =
          List.init (1 + Rng.int rng 4) (fun _ ->
              let src, dst = pair () in
              Commodity.make ~src ~dst
                ~amount:(float_of_int (1 + Rng.int rng 20)))
        in
        let cache = Centrality.Cache.create () in
        let agree () =
          same_centrality
            (Centrality.compute ~cache ~length:(Array.get length)
               ~cap:(Array.get cap) g demands)
            (Centrality.compute ~length:(Array.get length)
               ~cap:(Array.get cap) g demands)
        in
        let ok = ref (agree ()) in
        for _ = 1 to 12 do
          if !ok then begin
            let repaired =
              match Rng.int rng 3 with
              | 0 ->
                (* a committed prune *)
                let e = Rng.int rng (Graph.ne g) in
                length.(e) <-
                  (length.(e) +. if integral then 1.0 else Rng.float rng 1.0);
                cap.(e) <- Float.max 0.0 (cap.(e) -. float_of_int (Rng.int rng 4));
                Centrality.Cache.note_worse cache e;
                false
              | 1 ->
                let v = Rng.int rng n in
                Graph.iter_incident g v (fun _ e -> length.(e) <- drop length.(e));
                Centrality.Cache.note_improved cache v;
                true
              | _ ->
                let e = Rng.int rng (Graph.ne g) in
                length.(e) <- drop length.(e);
                if Rng.bool rng then
                  cap.(e) <- cap.(e) +. float_of_int (1 + Rng.int rng 4);
                let u, v = Graph.endpoints g e in
                Centrality.Cache.note_improved cache (if Rng.bool rng then u else v);
                true
            in
            let hits = Obs.domain_counter_value "centrality.cache_hits" in
            ok := agree ();
            if repaired then
              hits_after_repair :=
                !hits_after_repair
                + Obs.domain_counter_value "centrality.cache_hits" - hits
          end
        done;
        !ok)
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  QCheck.Test.check_exn prop;
  Alcotest.(check bool) "some lookup after a repair hit" true
    (!hits_after_repair > 0)

(* ---- Bubble ---- *)

let test_bubble_whole_graph_single_demand () =
  let g = fixture () in
  let d = demand 0 5 in
  match Bubble.find g ~demands:[ d ] d with
  | Some members -> Alcotest.(check int) "everything" 6 (List.length members)
  | None -> Alcotest.fail "expected a bubble"

let test_bubble_blocked_by_other_endpoints () =
  (* Demand (0,2) on the path 0-1-2-3-4: vertex 2.. use fixture:
     demands (0,5) and (2,3): bubble for (0,5) must exclude 2 and 3,
     and interior vertices adjacent to them. *)
  let g = fixture () in
  let d1 = demand 0 5 and d2 = demand 2 3 in
  match Bubble.find g ~demands:[ d1; d2 ] d1 with
  | Some members ->
    Alcotest.(check bool) "no other endpoint" true
      ((not (List.mem 2 members)) && not (List.mem 3 members))
  | None -> () (* a fully blocked bubble is also acceptable *)

let test_bubble_prune_routes_demand () =
  let g = fixture () in
  let d = demand ~amount:15.0 0 5 in
  match
    Bubble.prune
      ~working_vertex:(fun _ -> true)
      ~working_edge:(fun _ -> true)
      ~cap:(Graph.capacity g) g ~demands:[ d ] d
  with
  | Some pr ->
    Alcotest.(check (float 1e-6)) "full amount" 15.0 pr.Bubble.amount;
    let total =
      List.fold_left (fun acc (_, x) -> acc +. x) 0.0 pr.Bubble.paths
    in
    Alcotest.(check (float 1e-6)) "paths sum" 15.0 total
  | None -> Alcotest.fail "expected a prune"

let test_bubble_prune_capped_by_flow () =
  let g = path_graph ~capacity:3.0 3 in
  let d = demand ~amount:10.0 0 2 in
  match
    Bubble.prune
      ~working_vertex:(fun _ -> true)
      ~working_edge:(fun _ -> true)
      ~cap:(Graph.capacity g) g ~demands:[ d ] d
  with
  | Some pr -> Alcotest.(check (float 1e-6)) "capped" 3.0 pr.Bubble.amount
  | None -> Alcotest.fail "expected a prune"

let test_bubble_prune_respects_broken () =
  let g = path_graph 3 in
  let d = demand 0 2 in
  match
    Bubble.prune
      ~working_vertex:(fun v -> v <> 1)
      ~working_edge:(fun _ -> true)
      ~cap:(Graph.capacity g) g ~demands:[ d ] d
  with
  | Some _ -> Alcotest.fail "broken relay must block pruning"
  | None -> ()

(* Theorem 3's guarantee: pruning a demand over a bubble never destroys
   the routability of the rest of the demand.  Exercised on random
   instances with the exact LP as the referee. *)
let prune_preserves_routability_prop =
  QCheck.Test.make ~name:"prune preserves routability (Thm 3)" ~count:20
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 31) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:10 ~p:0.4 ~capacity:6.0
      in
      let n = Graph.nv g in
      if n < 4 || not (Traverse.is_connected g) then true
      else begin
        let demands =
          [ Commodity.make ~src:0 ~dst:(n - 1) ~amount:3.0;
            Commodity.make ~src:1 ~dst:(n - 2) ~amount:3.0 ]
        in
        let cap = Graph.capacity g in
        match Netrec_flow.Mcf_lp.feasible ~cap g demands with
        | Netrec_flow.Mcf_lp.Routable _ -> (
          let h = List.hd demands in
          match
            Bubble.prune
              ~working_vertex:(fun _ -> true)
              ~working_edge:(fun _ -> true)
              ~cap g ~demands h
          with
          | None -> true
          | Some pr ->
            (* Apply the prune: consume capacities, shrink the demand. *)
            let resid = Array.init (Graph.ne g) cap in
            List.iter
              (fun (p, amount) ->
                List.iter
                  (fun e -> resid.(e) <- Float.max 0.0 (resid.(e) -. amount))
                  p)
              pr.Bubble.paths;
            let demands' =
              { h with
                Commodity.amount = h.Commodity.amount -. pr.Bubble.amount }
              :: List.tl demands
            in
            let demands' =
              List.filter (fun d -> d.Commodity.amount > 1e-9) demands'
            in
            (match
               Netrec_flow.Mcf_lp.feasible ~cap:(fun e -> resid.(e)) g demands'
             with
            | Netrec_flow.Mcf_lp.Routable _ -> true
            | Netrec_flow.Mcf_lp.Unroutable -> false
            | _ -> true))
        | _ -> true (* only routable instances are in Thm 3's scope *)
      end)

(* Def. 2 by erosion, the reference for the closed form: explore from s
   avoiding other demands' endpoints, drop every interior vertex with a
   full-graph neighbour outside the explored set, repeat until stable. *)
let erosion_bubble g ~demands h =
  let s = h.Commodity.src and t = h.Commodity.dst in
  let n = Graph.nv g in
  let allowed = Array.make n true in
  List.iter
    (fun d ->
      if not (d.Commodity.src = s && d.Commodity.dst = t)
         && not (d.Commodity.src = t && d.Commodity.dst = s)
      then
        List.iter
          (fun x -> if x <> s && x <> t then allowed.(x) <- false)
          [ d.Commodity.src; d.Commodity.dst ])
    demands;
  let rec stabilize () =
    let dist = Traverse.bfs_dist ~vertex_ok:(fun v -> allowed.(v)) g s in
    if dist.(t) = max_int then None
    else begin
      let in_set v = dist.(v) < max_int in
      let offenders =
        List.filter
          (fun v ->
            in_set v && v <> s && v <> t
            && List.exists (fun (w, _) -> not (in_set w)) (Graph.incident g v))
          (Graph.vertices g)
      in
      if offenders = [] then Some (List.filter in_set (Graph.vertices g))
      else begin
        List.iter (fun v -> allowed.(v) <- false) offenders;
        stabilize ()
      end
    end
  in
  stabilize ()

(* A random multigraph with the shapes the closed form has to get
   right: a random core, pendant vertices hanging off it, a separate
   small component, isolated vertices, and parallel edges. *)
let bubble_graph st =
  let core = 3 + Random.State.int st 10 in
  let pendants = Random.State.int st 4 in
  let island = Random.State.int st 4 in
  let isolated = Random.State.int st 3 in
  let n = core + pendants + island + isolated in
  let edges = ref [] in
  let add u v =
    let c = 1.0 +. float_of_int (Random.State.int st 5) in
    edges := (u, v, c) :: !edges
  in
  for _ = 1 to Random.State.int st (2 * core) do
    let u = Random.State.int st core in
    let v = (u + 1 + Random.State.int st (core - 1)) mod core in
    add u v
  done;
  for p = core to core + pendants - 1 do
    add p (Random.State.int st core)
  done;
  for i = 1 to island - 1 do
    let base = core + pendants in
    add (base + i) (base + Random.State.int st i)
  done;
  (* parallel copies *)
  List.iter
    (fun (u, v, _) -> if Random.State.int st 4 = 0 then add u v)
    !edges;
  (n, !edges)

(* Demands drawn from a small endpoint pool, so endpoints are shared,
   plus a reversed duplicate of some pair. *)
let bubble_demands st n =
  let pool =
    Array.init (2 + Random.State.int st 4) (fun _ -> Random.State.int st n)
  in
  let pick () = pool.(Random.State.int st (Array.length pool)) in
  let rec pair tries =
    let s = pick () and t = pick () in
    if s <> t then Some (s, t)
    else if tries > 0 then pair (tries - 1)
    else None
  in
  let ds =
    List.filter_map
      (fun _ ->
        Option.map
          (fun (s, t) -> Commodity.make ~src:s ~dst:t ~amount:1.0)
          (pair 5))
      (List.init (1 + Random.State.int st 5) Fun.id)
  in
  match ds with
  | d :: _ when Random.State.bool st ->
    Commodity.make ~src:d.Commodity.dst ~dst:d.Commodity.src ~amount:2.0 :: ds
  | _ -> ds

let bubble_instance seed =
  let st = Random.State.make [| seed |] in
  let n, edges = bubble_graph st in
  let demands = bubble_demands st n in
  (* Sometimes join a demand pair directly. *)
  let edges =
    match demands with
    | d :: _ when Random.State.int st 3 = 0 ->
      (d.Commodity.src, d.Commodity.dst, 1.0) :: edges
    | _ -> edges
  in
  (st, Graph.make ~n ~edges:(List.rev edges) (), demands)

let bubble_closed_form_prop =
  QCheck.Test.make ~name:"closed-form bubble = erosion (Def. 2)" ~count:500
    QCheck.small_int (fun seed ->
      let _, g, demands = bubble_instance seed in
      List.for_all
        (fun h -> Bubble.find g ~demands h = erosion_bubble g ~demands h)
        demands)

(* One cache per run, as ISP keeps it: a random sequence of demand sets
   on one graph, with the run's retain calls in between, answers as
   fresh labels do, and labels a pair again only after retain dropped
   it. *)
let bubble_cache_prop =
  QCheck.Test.make ~name:"per-run bubble cache = fresh labels" ~count:200
    QCheck.small_int (fun seed ->
      let module Obs = Netrec_obs.Obs in
      let st, g, _ = bubble_instance seed in
      let n = Graph.nv g in
      let cache = Bubble.Cache.create () in
      let was = Obs.enabled () in
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
      let key d =
        let s = d.Commodity.src and t = d.Commodity.dst in
        (min s t, max s t)
      in
      let held = Hashtbl.create 8 and expected = ref 0 in
      let before = Obs.counter_value "bubble.labels" in
      let fresh_labels = ref 0 in
      let same =
        List.for_all
          (fun _ ->
            let demands = bubble_demands st n in
            if Random.State.bool st then begin
              Bubble.Cache.retain cache demands;
              Hashtbl.filter_map_inplace
                (fun k () ->
                  if List.exists (fun d -> key d = k) demands then Some ()
                  else None)
                held
            end;
            List.for_all
              (fun h ->
                if not (Hashtbl.mem held (key h)) then begin
                  incr expected;
                  Hashtbl.replace held (key h) ()
                end;
                let cached = Bubble.find ~cache g ~demands h in
                let l0 = Obs.counter_value "bubble.labels" in
                let fresh = Bubble.find g ~demands h in
                fresh_labels :=
                  !fresh_labels + Obs.counter_value "bubble.labels" - l0;
                cached = fresh)
              demands)
          (List.init 8 Fun.id)
      in
      same
      && Obs.counter_value "bubble.labels" - before - !fresh_labels = !expected)

(* ---- ISP ---- *)

let isp inst = Isp.solve inst

let check_no_loss inst sol =
  Alcotest.(check (float 1e-6)) "no demand loss" 1.0
    (Evaluate.satisfied_fraction inst sol)

let test_isp_nothing_broken () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.none g) in
  let sol, stats = isp inst in
  Alcotest.(check int) "no repairs" 0 (Instance.total_repairs sol);
  Alcotest.(check int) "no splits" 0 stats.Isp.splits;
  check_no_loss inst sol

let test_isp_no_demands () =
  let g = fixture () in
  let inst = make_inst g [] (Failure.complete g) in
  let sol, _ = isp inst in
  Alcotest.(check int) "no repairs" 0 (Instance.total_repairs sol)

let test_isp_path_complete_destruction () =
  let g = path_graph 4 in
  let inst = make_inst g [ demand 0 3 ] (Failure.complete g) in
  let sol, _ = isp inst in
  (* Must repair the whole unique path: 4 vertices + 3 edges. *)
  Alcotest.(check int) "vertices" 4 (Instance.vertex_repairs sol);
  Alcotest.(check int) "edges" 3 (Instance.edge_repairs sol);
  Alcotest.(check bool) "valid" true (Evaluate.valid inst sol);
  check_no_loss inst sol

let test_isp_only_needed_branch () =
  (* A star: center 0, leaves 1..4; demand only 1->2.  ISP must not touch
     leaves 3 and 4. *)
  let g =
    Graph.make ~n:5
      ~edges:[ (0, 1, 10.0); (0, 2, 10.0); (0, 3, 10.0); (0, 4, 10.0) ] ()
  in
  let inst = make_inst g [ demand 1 2 ] (Failure.complete g) in
  let sol, _ = isp inst in
  Alcotest.(check bool) "leaf 3 untouched" false
    (List.mem 3 sol.Instance.repaired_vertices);
  Alcotest.(check bool) "leaf 4 untouched" false
    (List.mem 4 sol.Instance.repaired_vertices);
  Alcotest.(check int) "3 vertices" 3 (Instance.vertex_repairs sol);
  Alcotest.(check int) "2 edges" 2 (Instance.edge_repairs sol);
  check_no_loss inst sol

let test_isp_shares_repairs_between_demands () =
  (* Two demands whose shortest paths can share the middle of a ladder:
     ISP's split/centrality mechanism should reuse repaired middle
     edges rather than opening two disjoint corridors. *)
  let g = Netrec_graph.Generate.grid ~width:4 ~height:3 ~capacity:20.0 in
  let demands = [ demand ~amount:5.0 0 3; demand ~amount:5.0 8 11 ] in
  let inst = make_inst g demands (Failure.complete g) in
  let sol, _ = isp inst in
  check_no_loss inst sol;
  (* Disjoint corridors would need at least 8+6=14... sharing the middle
     row lowers the bill; just assert a sane bound and validity. *)
  Alcotest.(check bool) "valid" true (Evaluate.valid inst sol);
  Alcotest.(check bool) "not repairing everything" true
    (Instance.total_repairs sol < Graph.nv g + Graph.ne g)

let test_isp_respects_capacity_conflicts () =
  (* Two 10-unit demands, capacity 10 per edge: they cannot share one
     path; ISP must open enough capacity and still lose nothing. *)
  let g = Netrec_graph.Generate.grid ~width:4 ~height:2 ~capacity:10.0 in
  let demands = [ demand ~amount:10.0 0 3; demand ~amount:10.0 4 7 ] in
  let inst = make_inst g demands (Failure.complete g) in
  let sol, _ = isp inst in
  check_no_loss inst sol;
  Alcotest.(check bool) "valid" true (Evaluate.valid inst sol)

let test_isp_partial_failure () =
  let g = fixture () in
  (* Break only the top path; bottom path can carry the demand. *)
  let e01 = Option.get (Graph.find_edge g 0 1) in
  let failure = Failure.of_lists g ~vertices:[] ~edges:[ e01 ] in
  let inst = make_inst g [ demand ~amount:10.0 0 5 ] failure in
  let sol, _ = isp inst in
  Alcotest.(check int) "no repairs needed" 0 (Instance.total_repairs sol);
  check_no_loss inst sol

let test_isp_broken_endpoint_repaired () =
  let g = path_graph 3 in
  let failure = Failure.of_lists g ~vertices:[ 0 ] ~edges:[] in
  let inst = make_inst g [ demand 0 2 ] failure in
  let sol, stats = isp inst in
  Alcotest.(check (list int)) "endpoint repaired" [ 0 ]
    sol.Instance.repaired_vertices;
  Alcotest.(check int) "counted" 1 stats.Isp.endpoint_repairs;
  check_no_loss inst sol

let test_isp_routing_is_valid () =
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:12.0 0 5 ] (Failure.complete g) in
  let sol, _ = isp inst in
  Alcotest.(check bool) "routing present" true (sol.Instance.routing <> []);
  Alcotest.(check bool) "valid incl. routing" true (Evaluate.valid inst sol);
  Alcotest.(check (float 1e-6)) "routes everything" 12.0
    (Routing.total_routed sol.Instance.routing)

let test_isp_deterministic () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5; demand 2 3 ] (Failure.complete g) in
  let s1, _ = isp inst and s2, _ = isp inst in
  Alcotest.(check (list int)) "same vertices" s1.Instance.repaired_vertices
    s2.Instance.repaired_vertices;
  Alcotest.(check (list int)) "same edges" s1.Instance.repaired_edges
    s2.Instance.repaired_edges

let test_isp_heterogeneous_costs_prefer_cheap () =
  (* Two disjoint 2-hop routes; make one route's relay expensive: ISP's
     dynamic length metric must route around it. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 10.0); (1, 3, 10.0); (0, 2, 10.0); (2, 3, 10.0) ] ()
  in
  let vertex_cost = [| 1.0; 50.0; 1.0; 1.0 |] in
  let inst =
    make_inst ~vertex_cost g [ demand 0 3 ] (Failure.complete g)
  in
  let sol, _ = isp inst in
  Alcotest.(check bool) "avoids expensive relay" false
    (List.mem 1 sol.Instance.repaired_vertices);
  check_no_loss inst sol

(* ---- ISP regression scenarios on canonical shapes ---- *)

let test_isp_theta_graph () =
  (* Theta graph: three internally disjoint 0-4 routes of lengths 2, 3
     and 3 (vertices 0,1,2,3,4,5; routes 0-1-4, 0-2-3-4, 0-5-...-4).
     Demand below one route's capacity: ISP must open exactly the short
     route (3 vertices + 2 edges). *)
  let g =
    Graph.make ~n:6
      ~edges:
        [ (0, 1, 10.0); (1, 4, 10.0);      (* short route *)
          (0, 2, 10.0); (2, 3, 10.0); (3, 4, 10.0);  (* long route A *)
          (0, 5, 10.0); (5, 4, 10.0) ]     (* alternative 2-hop route *)
      ()
  in
  let inst = make_inst g [ demand ~amount:8.0 0 4 ] (Failure.complete g) in
  let sol, _ = isp inst in
  Alcotest.(check int) "3 vertices" 3 (Instance.vertex_repairs sol);
  Alcotest.(check int) "2 edges" 2 (Instance.edge_repairs sol);
  check_no_loss inst sol

let test_isp_theta_needs_two_routes () =
  (* Demand 15 > 10: one 2-hop route is not enough; ISP must open two of
     the three routes (the two 2-hop ones are cheapest: 4 vertices
     + 4 edges beyond endpoints... count: vertices {0,1,5,4} edges 4). *)
  let g =
    Graph.make ~n:6
      ~edges:
        [ (0, 1, 10.0); (1, 4, 10.0);
          (0, 2, 10.0); (2, 3, 10.0); (3, 4, 10.0);
          (0, 5, 10.0); (5, 4, 10.0) ]
      ()
  in
  let inst = make_inst g [ demand ~amount:15.0 0 4 ] (Failure.complete g) in
  let sol, _ = isp inst in
  check_no_loss inst sol;
  Alcotest.(check int) "both 2-hop routes" 8 (Instance.total_repairs sol)

let test_isp_ladder_cross_demands () =
  (* 2xN ladder with two demands along opposite rails: sharing rungs is
     never needed; ISP must not repair every rung. *)
  let g = Netrec_graph.Generate.grid ~width:5 ~height:2 ~capacity:10.0 in
  let demands = [ demand ~amount:5.0 0 4; demand ~amount:5.0 5 9 ] in
  let inst = make_inst g demands (Failure.complete g) in
  let sol, _ = isp inst in
  check_no_loss inst sol;
  (* Full repair would be 10 + 13 = 23; the two rails alone are 18. *)
  Alcotest.(check bool) "rails only (or close)" true
    (Instance.total_repairs sol <= 19)

let isp_no_loss_prop =
  QCheck.Test.make ~name:"isp never loses demand on feasible instances"
    ~count:15 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:14 ~p:0.3 ~capacity:10.0
      in
      if not (Traverse.is_connected g) then true
      else begin
        let n = Graph.nv g in
        let demands =
          [ Commodity.make ~src:0 ~dst:(n - 1) ~amount:4.0;
            Commodity.make ~src:1 ~dst:(n - 2) ~amount:4.0 ]
        in
        let inst = make_inst g demands (Failure.complete g) in
        if not (Instance.feasible_when_repaired inst) then true
        else begin
          let sol, _ = Isp.solve inst in
          Evaluate.satisfied_fraction inst sol >= 1.0 -. 1e-6
          && Evaluate.valid inst sol
        end
      end)

let isp_no_worse_than_all_prop =
  QCheck.Test.make ~name:"isp repairs at most everything" ~count:15
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 100) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:12 ~p:0.35 ~capacity:10.0
      in
      if not (Traverse.is_connected g) then true
      else begin
        let demands = [ Commodity.make ~src:0 ~dst:(Graph.nv g - 1) ~amount:3.0 ] in
        let inst = make_inst g demands (Failure.complete g) in
        let sol, _ = Isp.solve inst in
        Instance.total_repairs sol <= Graph.nv g + Graph.ne g
      end)

(* ---- candidate links (footnote 1) ---- *)

let test_candidate_links_extend_instance () =
  let g = Graph.make ~n:3 ~edges:[ (0, 1, 10.0) ] () in
  let inst = make_inst g [ demand ~amount:5.0 0 1 ] (Failure.none g) in
  let inst', ids = Instance.with_candidate_links inst [ (1, 2, 8.0, 3.5) ] in
  Alcotest.(check int) "one candidate" 1 (List.length ids);
  let e = List.hd ids in
  Alcotest.(check bool) "candidate broken" true
    (Failure.edge_broken inst'.Instance.failure e);
  Alcotest.(check (float 1e-9)) "install cost" 3.5 inst'.Instance.edge_cost.(e);
  Alcotest.(check int) "graph extended" 2 (Graph.ne inst'.Instance.graph);
  (* original untouched *)
  Alcotest.(check int) "original" 1 (Graph.ne inst.Instance.graph)

let test_candidate_links_enable_recovery () =
  (* 0-1 works but vertex 2 is only reachable via a candidate link: ISP
     must "build" it. *)
  let g = Graph.make ~n:3 ~edges:[ (0, 1, 10.0) ] () in
  let inst = make_inst g [ demand ~amount:5.0 0 2 ] (Failure.none g) in
  let inst', ids = Instance.with_candidate_links inst [ (1, 2, 8.0, 2.0) ] in
  let sol, _ = Isp.solve inst' in
  Alcotest.(check (list int)) "builds the candidate" ids
    sol.Instance.repaired_edges;
  check_no_loss inst' sol

let test_candidate_links_choose_cheaper () =
  (* Repairing the broken old link costs 10; building the new one 1. *)
  let g = Graph.make ~n:2 ~edges:[ (0, 1, 10.0) ] () in
  let edge_cost = [| 10.0 |] in
  let inst =
    make_inst ~edge_cost g
      [ demand ~amount:5.0 0 1 ]
      (Failure.of_lists g ~vertices:[] ~edges:[ 0 ])
  in
  let inst', ids = Instance.with_candidate_links inst [ (0, 1, 8.0, 1.0) ] in
  let sol, _ = Isp.solve inst' in
  Alcotest.(check (list int)) "builds new, skips old" ids
    sol.Instance.repaired_edges

(* ---- Schedule ---- *)

(* Exact satisfaction after each single repair of [order]. *)
let step_curve inst order =
  Schedule.prefix_satisfactions inst (List.map (fun el -> [ el ]) order)

let test_schedule_orders_all_repairs () =
  let g = path_graph 4 in
  let inst = make_inst g [ demand 0 3 ] (Failure.complete g) in
  let sol, _ = Isp.solve inst in
  let order = Schedule.greedy_order inst sol in
  Alcotest.(check int) "one step per repair"
    (Instance.total_repairs sol)
    (List.length order);
  (* Monotone non-decreasing satisfaction, ending at 1. *)
  let sats = step_curve inst order in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone sats);
  Alcotest.(check (float 1e-6)) "fully restored" 1.0
    (List.nth sats (List.length sats - 1))

let test_schedule_greedy_beats_or_ties_arbitrary () =
  let g = Netrec_graph.Generate.grid ~width:4 ~height:3 ~capacity:20.0 in
  let inst =
    make_inst g [ demand ~amount:5.0 0 3; demand ~amount:5.0 8 11 ]
      (Failure.complete g)
  in
  let sol, _ = Isp.solve inst in
  let auc order = Netrec_util.Stats.mean (step_curve inst order) in
  let greedy = auc (Schedule.greedy_order inst sol) in
  let arbitrary =
    auc
      (List.map (fun v -> `Vertex v) sol.Instance.repaired_vertices
      @ List.map (fun e -> `Edge e) sol.Instance.repaired_edges)
  in
  Alcotest.(check bool) "greedy >= arbitrary" true (greedy >= arbitrary -. 1e-9)

let test_schedule_empty_solution () =
  (* Nothing to order; round 0 of the curve is the unrepaired instance's
     satisfaction: 0 on a fully broken instance, 1 on an intact one. *)
  let g = path_graph 3 in
  let broken = make_inst g [ demand 0 2 ] (Failure.complete g) in
  Alcotest.(check int) "no steps" 0
    (List.length (Schedule.greedy_order broken Instance.empty_solution));
  Alcotest.(check (float 1e-9)) "broken baseline" 0.0
    (Schedule.baseline_satisfaction broken);
  let intact = make_inst g [ demand 0 2 ] (Failure.none g) in
  Alcotest.(check (float 1e-9)) "intact baseline" 1.0
    (Schedule.baseline_satisfaction intact)

(* Table-driven malformed repair orders: each case pins the structured
   [order_error] reported before any state array is indexed (matching
   the serializer's malformed-input table below). *)
let order_error_t =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Schedule.order_error_to_string e))
    ( = )

let schedule_malformed_cases =
  [ ("vertex out of range", [ `Vertex 99 ],
     Schedule.Out_of_range (`Vertex 99));
    ("negative vertex id", [ `Vertex (-1) ],
     Schedule.Out_of_range (`Vertex (-1)));
    ("edge out of range", [ `Edge 99 ], Schedule.Out_of_range (`Edge 99));
    ("negative edge id", [ `Edge (-2) ], Schedule.Out_of_range (`Edge (-2)));
    ("vertex not broken", [ `Vertex 0 ], Schedule.Not_broken (`Vertex 0));
    ("edge not broken", [ `Edge 1 ], Schedule.Not_broken (`Edge 1));
    ("duplicate vertex", [ `Vertex 1; `Vertex 1 ],
     Schedule.Duplicate (`Vertex 1));
    ("duplicate edge", [ `Edge 0; `Edge 0 ], Schedule.Duplicate (`Edge 0));
    ("first offender wins", [ `Vertex 1; `Edge 9 ],
     Schedule.Out_of_range (`Edge 9)) ]

let test_schedule_malformed_table () =
  (* path 0-1-2: vertex 1 and edge 0 broken; vertex 0 / edge 1 intact. *)
  let g = path_graph 3 in
  let inst =
    make_inst g [ demand 0 2 ] (Failure.of_lists g ~vertices:[ 1 ] ~edges:[ 0 ])
  in
  List.iter
    (fun (label, order, want) ->
      (match Schedule.validate_order inst order with
      | Ok () -> Alcotest.failf "%s: validated successfully" label
      | Error e -> Alcotest.check order_error_t (label ^ ": error") want e);
      match Netrec_sched.Sched.of_order inst order with
      | Ok _ -> Alcotest.failf "%s: Sched.of_order accepted" label
      | Error e -> Alcotest.check order_error_t (label ^ ": of_order") want e)
    schedule_malformed_cases

let test_schedule_greedy_rejects_malformed_solution () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.none g) in
  let sol =
    { Instance.repaired_vertices = [ 42 ]; repaired_edges = []; routing = Routing.empty }
  in
  Alcotest.check_raises "greedy validates"
    (Invalid_argument
       ("Schedule.greedy_order: "
       ^ Schedule.order_error_to_string (Schedule.Out_of_range (`Vertex 42))))
    (fun () -> ignore (Schedule.greedy_order inst sol))

let test_schedule_valid_orders_accepted () =
  let g = path_graph 3 in
  let inst =
    make_inst g [ demand 0 2 ] (Failure.of_lists g ~vertices:[ 1 ] ~edges:[ 0 ])
  in
  Alcotest.(check bool) "valid order passes" true
    (Schedule.validate_order inst [ `Vertex 1; `Edge 0 ] = Ok ())

let test_schedule_perf_sanity () =
  (* ~200-element solution: the greedy ordering must stay comfortably
     sub-quadratic-in-practice (baseline hoisted out of the scoring
     loop, boolean-array membership in completion_element).  The
     generous bound only guards against the removed O(k^2 * route)
     blowup, not machine speed. *)
  let n = 100 in
  let g = path_graph n in
  let inst = make_inst g [ demand 0 (n - 1) ] (Failure.complete g) in
  let sol = Instance.repair_all inst in
  Alcotest.(check int) "about 200 elements" (2 * n - 1)
    (Instance.total_repairs sol);
  let t0 = Unix.gettimeofday () in
  let order = Schedule.greedy_order inst sol in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "all scheduled" (2 * n - 1) (List.length order);
  Alcotest.(check (list (float 1e-6))) "fully restored" [ 1.0 ]
    (Schedule.prefix_satisfactions inst [ order ]);
  if dt > 30.0 then
    Alcotest.failf "greedy on %d elements took %.1fs (expected seconds)"
      (2 * n - 1) dt

(* ---- ISP length-mode ablation ---- *)

let test_isp_hop_mode_still_sound () =
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:10.0 0 5 ] (Failure.complete g) in
  let config = { Isp.default_config with Isp.length_mode = Isp.Hop } in
  let sol, _ = Isp.solve ~config inst in
  check_no_loss inst sol;
  Alcotest.(check bool) "valid" true (Evaluate.valid inst sol)

(* ---- Render ---- *)

let test_render_instance_dot () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  let dot = Render.instance_dot inst in
  Alcotest.(check bool) "graph header" true
    (String.length dot > 16 && String.sub dot 0 14 = "graph recovery");
  (* every vertex and edge appears *)
  Alcotest.(check bool) "has demand overlay" true
    (String.length dot > 0
    &&
    let contains needle =
      let n = String.length needle and h = String.length dot in
      let rec scan i = i + n <= h && (String.sub dot i n = needle || scan (i + 1)) in
      scan 0
    in
    contains "style=dashed")

let test_render_solution_marks_repairs () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.complete g) in
  let sol, _ = Isp.solve inst in
  let dot = Render.solution_dot inst sol in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec scan i = i + n <= h && (String.sub dot i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "repaired color present" true (contains "#7bc77b")

(* ---- Serialize ---- *)

let test_serialize_roundtrip () =
  let g = fixture () in
  let vertex_cost = Array.init (Graph.nv g) (fun i -> 1.0 +. float_of_int i) in
  let inst =
    make_inst ~vertex_cost g
      [ demand ~amount:7.5 0 5; demand ~amount:2.5 2 3 ]
      (Failure.of_lists g ~vertices:[ 1; 4 ] ~edges:[ 0; 6 ])
  in
  let inst' = Serialize.of_string (Serialize.to_string inst) in
  Alcotest.(check int) "nv" (Graph.nv g) (Graph.nv inst'.Instance.graph);
  Alcotest.(check int) "ne" (Graph.ne g) (Graph.ne inst'.Instance.graph);
  Alcotest.(check int) "demands" 2 (List.length inst'.Instance.demands);
  Alcotest.(check (list int)) "broken v" [ 1; 4 ]
    (Failure.broken_vertex_list inst'.Instance.failure);
  Alcotest.(check (list int)) "broken e" [ 0; 6 ]
    (Failure.broken_edge_list inst'.Instance.failure);
  Alcotest.(check (float 1e-9)) "vertex cost" 5.0
    inst'.Instance.vertex_cost.(4);
  (* demand order and values preserved *)
  let d = List.hd inst'.Instance.demands in
  Alcotest.(check (float 1e-9)) "amount" 7.5 d.Commodity.amount

let test_serialize_preserves_names_coords () =
  let bc = Netrec_topo.Bell_canada.graph () in
  let inst = make_inst bc [ demand 0 40 ] (Failure.complete bc) in
  let inst' = Serialize.of_string (Serialize.to_string inst) in
  Alcotest.(check string) "name" (Graph.name bc 1)
    (Graph.name inst'.Instance.graph 1);
  Alcotest.(check bool) "coords kept" true (Graph.has_coords inst'.Instance.graph)

let test_serialize_rejects_garbage () =
  Alcotest.(check bool) "raises Parse_error" true
    (try
       ignore (Serialize.of_string "[nonsense]\n1 2 3\n");
       false
     with Serialize.Parse_error _ -> true)

(* Table-driven malformed inputs: each case pins the 1-based line the
   structured error must point at and a substring of its message.
   Section-wide arity mismatches blame the section header; file-level
   problems use line 0 (see serialize.mli). *)
let malformed_cases =
  [ ( "empty input",
      "",
      0, "no [graph]" );
    ( "content before any section",
      "0 1 5\n[graph]\n0 1 5\n",
      1, "before any section" );
    ( "unknown section",
      "[graph]\n0 1 5\n[nonsense]\n1 2 3\n",
      3, "unknown section" );
    ( "truncated edge line",
      "[graph]\n0 1 5\n1 2\n",
      3, "3 fields" );
    ( "extra edge field",
      "[graph]\n0 1 5 9 9\n",
      2, "3 fields" );
    ( "non-integer vertex id",
      "[graph]\nzero 1 5\n",
      2, "vertex id" );
    ( "negative vertex id",
      "[graph]\n-1 1 5\n",
      2, "negative vertex id" );
    ( "negative capacity",
      "[graph]\n0 1 -5\n",
      2, "negative capacity" );
    ( "bad capacity",
      "[graph]\n0 1 lots\n",
      2, "capacity" );
    ( "truncated demand line",
      "[graph]\n0 1 5\n[demands]\n0\n",
      4, "3 fields" );
    ( "negative demand amount",
      "[graph]\n0 1 5\n[demands]\n0 1 -3\n",
      4, "negative demand amount" );
    ( "demand endpoint out of range",
      "[graph]\n0 1 5\n[demands]\n0 7 3\n",
      4, "out of range" );
    ( "broken vertex out of range",
      "[graph]\n0 1 5\n[broken_vertices]\n9\n",
      4, "out of range" );
    ( "broken edge out of range",
      "[graph]\n0 1 5\n[broken_edges]\n3\n",
      4, "out of range" );
    ( "non-integer broken edge",
      "[graph]\n0 1 5\n[broken_edges]\nfirst\n",
      4, "edge id" );
    ( "names arity mismatch",
      "[graph]\n0 1 5\n[names]\nonly-one\n",
      3, "arity mismatch" );
    ( "vertex costs arity mismatch",
      "[graph]\n0 1 5\n[vertex_costs]\n1.0\n1.0\n1.0\n",
      3, "arity mismatch" );
    ( "bad edge cost",
      "[graph]\n0 1 5\n[edge_costs]\ncheap\n",
      4, "edge cost" );
    (* Records that used to fail only in construction: uncaught, at
       line 0 or at the section header. *)
    ( "demand with equal endpoints",
      "[graph]\n0 1 5\n1 2 5\n[demands]\n0 0 3\n",
      5, "demand with equal endpoints 0" );
    ( "self-loop",
      "[graph]\n0 1 5\n1 1 5\n",
      3, "self-loop at vertex 1" );
    ( "zero demand amount",
      "[graph]\n0 1 5\n[demands]\n0 1 0\n",
      4, "zero demand amount" );
    (* No NaN anywhere; infinite amounts and costs, negative costs. *)
    ( "NaN capacity",
      "[graph]\n0 1 nan\n",
      2, "NaN capacity \"nan\"" );
    ( "NaN coordinate",
      "[graph]\n0 1 5\n[coords]\n0 0\n-nan 1\n",
      5, "NaN coordinate" );
    ( "NaN demand amount",
      "[graph]\n0 1 5\n[demands]\n0 1 nan\n",
      4, "NaN demand amount" );
    ( "infinite demand amount",
      "[graph]\n0 1 5\n[demands]\n0 1 inf\n",
      4, "non-finite demand amount inf" );
    ( "NaN vertex cost",
      "[graph]\n0 1 5\n[vertex_costs]\n1\nnan\n",
      5, "NaN vertex cost" );
    ( "negative vertex cost",
      "[graph]\n0 1 5\n[vertex_costs]\n-1\n1\n",
      4, "negative vertex cost -1" );
    ( "negative edge cost",
      "[graph]\n0 1 5\n[edge_costs]\n-0.5\n",
      4, "negative edge cost -0.5" );
    ( "infinite edge cost",
      "[graph]\n0 1 5\n[edge_costs]\ninfinity\n",
      4, "non-finite edge cost inf" );
    (* The first bad record in file order, at its own line, and its
       first bad field. *)
    ( "first of two out-of-range broken vertices",
      "[graph]\n0 1 5\n[broken_vertices]\n9\n8\n",
      4, "broken vertex id 9" );
    ( "first of two out-of-range broken edges",
      "[graph]\n0 1 5\n[broken_edges]\n3\n4\n",
      4, "broken edge id 3" );
    ( "first of two out-of-range demands",
      "[graph]\n0 1 5\n[demands]\n0 7 3\n0 8 3\n",
      4, "demand endpoint out of range" );
    ( "out-of-range demand before a broken vertex",
      "[graph]\n0 1 5\n[demands]\n0 7 3\n[broken_vertices]\n9\n",
      4, "demand endpoint out of range" );
    ( "first bad coordinate field",
      "[graph]\n0 1 5\n[coords]\nfoo bar\n0 0\n",
      4, "bad coordinate \"foo\"" );
    (* A vertex id sizes every per-vertex array, so a [graph] endpoint
       must lie below the text's length in bytes. *)
    ( "vertex id beyond the text",
      "[graph]\n0 3000000 1\n",
      2, "vertex id 3000000 too large for a 20-byte text" );
    ( "first of two vertex ids beyond the text",
      "[graph]\n0 1 5\n40 1 5\n0 90 5\n",
      3, "vertex id 40 too large" ) ]

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let test_serialize_malformed_table () =
  List.iter
    (fun (label, text, want_line, want_msg) ->
      match Serialize.of_string_result text with
      | Ok _ -> Alcotest.failf "%s: parsed successfully" label
      | Error { Serialize.line; msg } ->
        Alcotest.(check int) (label ^ ": line") want_line line;
        if not (contains msg want_msg) then
          Alcotest.failf "%s: message %S lacks %S" label msg want_msg)
    malformed_cases

let test_serialize_result_ok () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  match Serialize.of_string_result (Serialize.to_string inst) with
  | Ok inst' ->
    Alcotest.(check int) "nv" (Graph.nv g) (Graph.nv inst'.Instance.graph)
  | Error { Serialize.line; msg } ->
    Alcotest.failf "round-trip rejected (line %d: %s)" line msg

(* Round-trip property: on 100 seeded random instances and solutions
   (including empty demand sets and zero-capacity edges),
   [of_string_result] inverts [to_string] exactly — witnessed by
   re-rendering the parsed value and comparing strings, which pins ids,
   ordering and the %.12g float rendering all at once. *)
let random_instance rng =
  let n = 2 + Rng.int rng 7 in
  let ne = 1 + Rng.int rng (2 * n) in
  let edges =
    List.init ne (fun _ ->
        let u = Rng.int rng n in
        let v = (u + 1 + Rng.int rng (n - 1)) mod n in
        (* zero-capacity edges are legal and must survive the trip *)
        let cap = if Rng.bernoulli rng 0.2 then 0.0 else Rng.float rng 20.0 in
        (u, v, cap))
  in
  let g = Graph.make ~n ~edges () in
  let demands =
    List.init (Rng.int rng 3) (fun _ ->
        let s = Rng.int rng n in
        let t = (s + 1 + Rng.int rng (n - 1)) mod n in
        demand ~amount:(0.5 +. Rng.float rng 10.0) s t)
  in
  let pick p count = List.filter (fun _ -> Rng.bernoulli rng p) (List.init count Fun.id) in
  let failure =
    Failure.of_lists g ~vertices:(pick 0.4 n) ~edges:(pick 0.4 (Graph.ne g))
  in
  make_inst g demands failure

let random_solution rng inst =
  let failure = inst.Instance.failure in
  let keep l = List.filter (fun _ -> Rng.bernoulli rng 0.6) l in
  let routing =
    List.map
      (fun d ->
        { Routing.demand = d;
          paths =
            List.init (Rng.int rng 3) (fun _ ->
                ( List.init (Rng.int rng 4) (fun _ ->
                      Rng.int rng (Graph.ne inst.Instance.graph)),
                  Rng.float rng 5.0 )) })
      inst.Instance.demands
  in
  { Instance.repaired_vertices = keep (Failure.broken_vertex_list failure);
    repaired_edges = keep (Failure.broken_edge_list failure);
    routing }

let test_serialize_roundtrip_property () =
  for seed = 1 to 100 do
    let rng = Rng.create seed in
    let inst = random_instance rng in
    let text = Serialize.to_string inst in
    (match Serialize.of_string_result text with
    | Error { Serialize.line; msg } ->
      Alcotest.failf "seed %d: instance rejected (line %d: %s)" seed line msg
    | Ok inst' ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d: instance identity" seed)
        text
        (Serialize.to_string inst'));
    let sol = random_solution rng inst in
    let cost =
      if Rng.bool rng then Some (Instance.repair_cost inst sol) else None
    in
    let text = Serialize.solution_to_string ?cost sol in
    match Serialize.solution_of_string_result text with
    | Error { Serialize.line; msg } ->
      Alcotest.failf "seed %d: solution rejected (line %d: %s)" seed line msg
    | Ok (sol', cost') ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d: solution identity" seed)
        text
        (Serialize.solution_to_string ?cost:cost' sol');
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: cost preserved" seed)
        true (cost = cost')
  done

let test_serialize_solutions_agree () =
  (* Solving the round-tripped instance gives the same repair count. *)
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:10.0 0 5 ] (Failure.complete g) in
  let inst' = Serialize.of_string (Serialize.to_string inst) in
  let s1, _ = Isp.solve inst and s2, _ = Isp.solve inst' in
  Alcotest.(check int) "same total" (Instance.total_repairs s1)
    (Instance.total_repairs s2)

(* ---- Serialize against its reference ----

   The list-based parser and the Printf encoder that the in-place
   scanner and the Buffer encoder replaced, kept as the
   reference of the properties below. *)
module Reference = struct
  let err line fmt =
    Printf.ksprintf
      (fun msg -> raise (Serialize.Parse_error { Serialize.line; msg }))
      fmt

  let to_string inst =
    let g = inst.Instance.graph in
    let buf = Buffer.create 4096 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    line "[graph]";
    Graph.fold_edges
      (fun e () -> line "%d %d %.12g" e.Graph.u e.Graph.v e.Graph.capacity)
      g ();
    if Graph.has_coords g then begin
      line "[coords]";
      List.iter
        (fun v ->
          let x, y = Option.get (Graph.coord g v) in
          line "%.12g %.12g" x y)
        (Graph.vertices g)
    end;
    line "[names]";
    List.iter (fun v -> line "%s" (Graph.name g v)) (Graph.vertices g);
    line "[demands]";
    List.iter
      (fun d -> line "%d %d %.12g" d.Commodity.src d.Commodity.dst d.Commodity.amount)
      inst.Instance.demands;
    line "[broken_vertices]";
    List.iter (fun v -> line "%d" v)
      (Failure.broken_vertex_list inst.Instance.failure);
    line "[broken_edges]";
    List.iter (fun e -> line "%d" e)
      (Failure.broken_edge_list inst.Instance.failure);
    line "[vertex_costs]";
    Array.iter (fun c -> line "%.12g" c) inst.Instance.vertex_cost;
    line "[edge_costs]";
    Array.iter (fun c -> line "%.12g" c) inst.Instance.edge_cost;
    Buffer.contents buf

  type section = {
    mutable edges : (int * int * int * float) list;
    mutable coords : (float * float) list;
    mutable names : string list;
    mutable demands : (int * int * int * float) list;
    mutable broken_v : (int * int) list;
    mutable broken_e : (int * int) list;
    mutable vcosts : float list;
    mutable ecosts : float list;
  }

  let int_field ln what s =
    match int_of_string_opt s with
    | Some i when i >= 0 -> i
    | Some i -> err ln "negative %s %d" what i
    | None -> err ln "bad %s %S (expected a non-negative integer)" what s

  let float_field ln what s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> err ln "bad %s %S (expected a number)" what s

  let parse text =
    let acc =
      { edges = []; coords = []; names = []; demands = []; broken_v = [];
        broken_e = []; vcosts = []; ecosts = [] }
    in
    let current = ref "" in
    let header_line = Hashtbl.create 8 in
    let section_err section fmt =
      err (Option.value ~default:0 (Hashtbl.find_opt header_line section)) fmt
    in
    String.split_on_char '\n' text
    |> List.iteri (fun i raw ->
           let ln = i + 1 in
           let line = String.trim raw in
           if line = "" || line.[0] = '#' then ()
           else if line.[0] = '[' then begin
             current := line;
             if not (Hashtbl.mem header_line line) then
               Hashtbl.replace header_line line ln
           end
           else
             let parts =
               String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
             in
             let arity section want =
               err ln "expected %s in %s, got %d field(s)" want section
                 (List.length parts)
             in
             match !current with
             | "[graph]" -> (
               match parts with
               | [ u; v; c ] ->
                 let u = int_field ln "vertex id" u in
                 let v = int_field ln "vertex id" v in
                 let c = float_field ln "capacity" c in
                 if c < 0.0 then err ln "negative capacity %g" c;
                 acc.edges <- (ln, u, v, c) :: acc.edges
               | _ -> arity "[graph]" "3 fields (u v capacity)")
             | "[coords]" -> (
               match parts with
               | [ x; y ] ->
                 acc.coords <-
                   (float_field ln "coordinate" x, float_field ln "coordinate" y)
                   :: acc.coords
               | _ -> arity "[coords]" "2 fields (x y)")
             | "[names]" -> acc.names <- line :: acc.names
             | "[demands]" -> (
               match parts with
               | [ s; t; a ] ->
                 let s = int_field ln "vertex id" s in
                 let t = int_field ln "vertex id" t in
                 let a = float_field ln "demand amount" a in
                 if a < 0.0 then err ln "negative demand amount %g" a;
                 acc.demands <- (ln, s, t, a) :: acc.demands
               | _ -> arity "[demands]" "3 fields (src dst amount)")
             | "[broken_vertices]" ->
               acc.broken_v <- (ln, int_field ln "vertex id" line) :: acc.broken_v
             | "[broken_edges]" ->
               acc.broken_e <- (ln, int_field ln "edge id" line) :: acc.broken_e
             | "[vertex_costs]" ->
               acc.vcosts <- float_field ln "vertex cost" line :: acc.vcosts
             | "[edge_costs]" ->
               acc.ecosts <- float_field ln "edge cost" line :: acc.ecosts
             | "" -> err ln "content before any section: %S" line
             | s -> err (Hashtbl.find header_line s) "unknown section %s" s);
    let edges = List.rev acc.edges in
    if edges = [] then err 0 "no [graph] section";
    let n =
      List.fold_left (fun m (_, u, v, _) -> max m (max u v + 1)) 0 edges
      |> max (List.length acc.names)
      |> max (List.length acc.coords)
    in
    let names =
      match List.rev acc.names with
      | [] -> None
      | ns when List.length ns = n -> Some (Array.of_list ns)
      | ns ->
        section_err "[names]" "[names] arity mismatch (%d names, %d vertices)"
          (List.length ns) n
    in
    let coords =
      match List.rev acc.coords with
      | [] -> None
      | cs when List.length cs = n -> Some (Array.of_list cs)
      | cs ->
        section_err "[coords]" "[coords] arity mismatch (%d coords, %d vertices)"
          (List.length cs) n
    in
    let graph =
      try
        Graph.make ?names ?coords ~n
          ~edges:(List.map (fun (_, u, v, c) -> (u, v, c)) edges)
          ()
      with Invalid_argument m | Failure m -> section_err "[graph]" "%s" m
    in
    List.iter
      (fun (ln, id) ->
        if id >= n then
          err ln "broken vertex id %d out of range (graph has %d vertices)" id n)
      acc.broken_v;
    List.iter
      (fun (ln, id) ->
        if id >= Graph.ne graph then
          err ln "broken edge id %d out of range (graph has %d edges)" id
            (Graph.ne graph))
      acc.broken_e;
    let failure =
      Failure.of_lists graph ~vertices:(List.map snd acc.broken_v)
        ~edges:(List.map snd acc.broken_e)
    in
    let demands =
      List.rev_map
        (fun (ln, s, t, a) ->
          if s >= n || t >= n then
            err ln "demand endpoint out of range (graph has %d vertices)" n;
          Commodity.make ~src:s ~dst:t ~amount:a)
        acc.demands
    in
    let vertex_cost =
      match List.rev acc.vcosts with
      | [] -> None
      | cs when List.length cs = n -> Some (Array.of_list cs)
      | cs ->
        section_err "[vertex_costs]"
          "[vertex_costs] arity mismatch (%d costs, %d vertices)"
          (List.length cs) n
    in
    let edge_cost =
      match List.rev acc.ecosts with
      | [] -> None
      | cs when List.length cs = Graph.ne graph -> Some (Array.of_list cs)
      | cs ->
        section_err "[edge_costs]"
          "[edge_costs] arity mismatch (%d costs, %d edges)" (List.length cs)
          (Graph.ne graph)
    in
    try Instance.make ?vertex_cost ?edge_cost ~graph ~demands ~failure ()
    with Invalid_argument m | Failure m -> err 0 "%s" m

  let solution_to_string ?cost (sol : Instance.solution) =
    let buf = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    line "[repaired_vertices]";
    List.iter (fun v -> line "%d" v) sol.Instance.repaired_vertices;
    line "[repaired_edges]";
    List.iter (fun e -> line "%d" e) sol.Instance.repaired_edges;
    (match cost with
    | Some c ->
      line "[cost]";
      line "%.12g" c
    | None -> ());
    line "[routing]";
    List.iter
      (fun a ->
        let d = a.Routing.demand in
        line "demand %d %d %.12g" d.Commodity.src d.Commodity.dst
          d.Commodity.amount;
        List.iter
          (fun (p, x) ->
            line "path %.12g%s" x
              (String.concat "" (List.map (Printf.sprintf " %d") p)))
          a.Routing.paths)
      sol.Instance.routing;
    Buffer.contents buf

  let parse_solution text =
    let rv = ref [] and re = ref [] and costs = ref [] and assignments = ref [] in
    let current = ref "" in
    String.split_on_char '\n' text
    |> List.iteri (fun i raw ->
           let ln = i + 1 in
           let line = String.trim raw in
           if line = "" || line.[0] = '#' then ()
           else if line.[0] = '[' then begin
             match line with
             | "[repaired_vertices]" | "[repaired_edges]" | "[cost]"
             | "[routing]" ->
               current := line
             | s -> err ln "unknown section %s" s
           end
           else
             let parts =
               String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
             in
             match !current with
             | "[repaired_vertices]" -> rv := int_field ln "vertex id" line :: !rv
             | "[repaired_edges]" -> re := int_field ln "edge id" line :: !re
             | "[cost]" -> costs := float_field ln "cost" line :: !costs
             | "[routing]" -> (
               match parts with
               | "demand" :: [ s; t; a ] ->
                 let s = int_field ln "vertex id" s in
                 let t = int_field ln "vertex id" t in
                 let a = float_field ln "demand amount" a in
                 if s = t then err ln "demand with equal endpoints %d" s;
                 assignments :=
                   ({ Commodity.src = s; dst = t; amount = a }, []) :: !assignments
               | "path" :: flow :: edges -> (
                 let x = float_field ln "path flow" flow in
                 let p = List.map (int_field ln "edge id") edges in
                 match !assignments with
                 | [] -> err ln "path line before any demand line"
                 | (d, paths) :: rest -> assignments := (d, (p, x) :: paths) :: rest)
               | _ ->
                 err ln
                   "expected \"demand <src> <dst> <amount>\" or \"path <flow> \
                    <edge-id>*\", got %S"
                   line)
             | "" -> err ln "content before any section: %S" line
             | _ -> assert false);
    let cost =
      match !costs with
      | [] -> None
      | [ c ] -> Some c
      | _ -> err 0 "[cost] section carries more than one value"
    in
    ( { Instance.repaired_vertices = List.rev !rv;
        repaired_edges = List.rev !re;
        routing =
          List.rev_map
            (fun (demand, paths) -> { Routing.demand; paths = List.rev paths })
            !assignments },
      cost )
end

(* What a parser made of a text: the parsed value printed by the
   reference encoder, a structured error, or an escaped exception. *)
type outcome = Parsed of string | Rejected of int * string | Raised of string

let outcome parse print text =
  match parse text with
  | v -> Parsed (print v)
  | exception Serialize.Parse_error { Serialize.line; msg } -> Rejected (line, msg)
  | exception e -> Raised (Printexc.to_string e)

let show = function
  | Parsed s -> Printf.sprintf "Parsed %S" s
  | Rejected (l, m) -> Printf.sprintf "Rejected (line %d: %s)" l m
  | Raised e -> "Raised " ^ e

let starts_with prefix s = String.starts_with ~prefix s

(* The differences the rejection rules make on purpose.  NaN anywhere,
   infinite amounts and costs, negative costs, zero amounts, equal
   demand endpoints, self-loops and [graph] endpoint ids at or above the
   text's length are rejected at their own line, where
   the reference accepted them, raised, or blamed line 0 or the section
   header; such a rejection may only pre-empt a reference error that is
   not a syntax error on an earlier line.  Out-of-range ids blame the
   first culprit in file order, so no later line than the reference's;
   a [coords] line blames its x before its y. *)
let sanctioned ~reference ~fresh =
  let new_rejection m =
    List.exists (fun p -> starts_with p m)
      [ "NaN "; "non-finite "; "negative vertex cost"; "negative edge cost";
        "zero demand amount"; "demand with equal endpoints"; "self-loop at vertex";
        "vertex id " ]
  in
  let syntax m =
    List.exists (fun p -> starts_with p m)
      [ "bad "; "negative "; "expected "; "content before" ]
  in
  match (reference, fresh) with
  | Rejected (l', m'), Rejected (l, m) when new_rejection m ->
    (not (syntax m')) || l' >= l
  | (Parsed _ | Raised _), Rejected (_, m) -> new_rejection m
  | Rejected (l', m'), Rejected (l, m)
    when contains m' "out of range" && contains m "out of range" ->
    l <= l'
  | Rejected (l', m'), Rejected (l, m)
    when starts_with "bad coordinate" m' && starts_with "bad coordinate" m ->
    l = l'
  | _ -> false

(* Valid instances that exercise every section: names with spaces,
   coordinates, infinite and integral capacities, costs. *)
let rich_instance rng =
  let n = 2 + Rng.int rng 6 in
  let value () =
    match Rng.int rng 6 with
    | 0 -> float_of_int (Rng.int rng 30)
    | 1 -> 0.1 +. 0.2
    | 2 -> 1e-5 *. float_of_int (1 + Rng.int rng 9)
    | _ -> Rng.float rng 20.0
  in
  let edges =
    List.init (1 + Rng.int rng (2 * n)) (fun _ ->
        let u = Rng.int rng n in
        let v = (u + 1 + Rng.int rng (n - 1)) mod n in
        (u, v, if Rng.bernoulli rng 0.05 then Float.infinity else value ()))
  in
  let names =
    if Rng.bool rng then None
    else Some (Array.init n (fun i -> if Rng.bool rng then Printf.sprintf "city %d" i else Printf.sprintf "n%d" i))
  in
  let coords =
    if Rng.bool rng then None
    else Some (Array.init n (fun _ -> (Rng.float rng 2.0 -. 1.0, value ())))
  in
  let g = Graph.make ?names ?coords ~n ~edges () in
  let demands =
    List.init (Rng.int rng 4) (fun _ ->
        let s = Rng.int rng n in
        let t = (s + 1 + Rng.int rng (n - 1)) mod n in
        demand ~amount:(0.5 +. value ()) s t)
  in
  let pick p count = List.filter (fun _ -> Rng.bernoulli rng p) (List.init count Fun.id) in
  let failure =
    Failure.of_lists g ~vertices:(pick 0.4 n) ~edges:(pick 0.4 (Graph.ne g))
  in
  let costs count = if Rng.bool rng then None else Some (Array.init count (fun _ -> value ())) in
  make_inst ?vertex_cost:(costs n) ?edge_cost:(costs (Graph.ne g)) g demands failure

(* Tokens the number syntax treats specially.  Fractional 16- and
   17-digit mantissas take the fallback; integral ones are left out,
   since as a vertex id they would size the reference's arrays (large
   ids come from [mutate]'s own case, near the text's length). *)
let odd_tokens =
  [| "-1"; "nan"; "0x1f"; "1_0"; "+3"; "1e400"; "3.141592653589793";
     "0.30000000000000004"; "1234567890123.4567"; "-0"; "inf"; "-inf";
     "1e22"; "1e-23"; "007" |]

(* One random edit of a serialized text: a token deleted, duplicated,
   swapped or replaced by an odd one or by a large id (just below, at or
   beyond the text's length, which bounds a [graph] endpoint); a tab,
   form feed, CR or space at a line's end or for its separators, CRLF,
   comments, blank lines, repeated or unknown sections; a line
   dropped. *)
let mutate rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let nl = Array.length lines in
  let pick_line () = Rng.int rng nl in
  let tokens l = Array.of_list (String.split_on_char ' ' lines.(l)) in
  let set_tokens l a = lines.(l) <- String.concat " " (Array.to_list a) in
  let insert_at k s =
    Array.concat [ Array.sub lines 0 k; [| s |]; Array.sub lines k (nl - k) ]
  in
  let edited =
    match Rng.int rng 13 with
    | 0 ->
      let l = pick_line () in
      let a = tokens l in
      let k = Rng.int rng (Array.length a) in
      set_tokens l (Array.append (Array.sub a 0 k) (Array.sub a (k + 1) (Array.length a - k - 1)));
      lines
    | 1 ->
      let l = pick_line () in
      let a = tokens l in
      let k = Rng.int rng (Array.length a) in
      set_tokens l (Array.concat [ Array.sub a 0 (k + 1); Array.sub a k (Array.length a - k) ]);
      lines
    | 2 ->
      let l = pick_line () in
      let a = tokens l in
      let i = Rng.int rng (Array.length a) and j = Rng.int rng (Array.length a) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t;
      set_tokens l a;
      lines
    | 3 | 4 ->
      let l = pick_line () in
      let a = tokens l in
      a.(Rng.int rng (Array.length a)) <- odd_tokens.(Rng.int rng (Array.length odd_tokens));
      set_tokens l a;
      lines
    | 5 ->
      let l = pick_line () in
      let ws = [| "\t"; "\012"; "\r"; " " |].(Rng.int rng 4) in
      lines.(l) <-
        (match Rng.int rng 3 with
        | 0 -> ws ^ lines.(l)
        | 1 -> lines.(l) ^ ws
        | _ -> String.map (fun c -> if c = ' ' then ws.[0] else c) lines.(l));
      lines
    | 6 -> Array.map (fun s -> s ^ "\r") lines
    | 7 -> insert_at (Rng.int rng (nl + 1)) "# a comment"
    | 8 -> insert_at (Rng.int rng (nl + 1)) (if Rng.bool rng then "" else " \t ")
    | 9 ->
      let headers = List.filter (fun s -> starts_with "[" s) (Array.to_list lines) in
      insert_at (Rng.int rng (nl + 1)) (List.nth headers (Rng.int rng (List.length headers)))
    | 10 -> insert_at (Rng.int rng (nl + 1)) "[extra]"
    | 11 ->
      (* an id field is one of a line's first two tokens *)
      let l = pick_line () in
      let a = tokens l in
      let len = String.length text in
      let past = if Rng.bool rng then 0 else Rng.int rng (4 * len) in
      let big = len - 1 + Rng.int rng 3 + past in
      a.(Rng.int rng (min 2 (Array.length a))) <- string_of_int big;
      set_tokens l a;
      lines
    | _ ->
      let l = pick_line () in
      Array.append (Array.sub lines 0 l) (Array.sub lines (l + 1) (nl - l - 1))
  in
  String.concat "\n" (Array.to_list edited)

let mutated rng text =
  let rec go k t = if k = 0 then t else go (k - 1) (mutate rng t) in
  go (1 + Rng.int rng 3) text

let instance_outcomes text =
  ( outcome Reference.parse Reference.to_string text,
    outcome
      (fun t ->
        match Serialize.of_string_result t with
        | Ok inst -> inst
        | Error e -> raise (Serialize.Parse_error e))
      Reference.to_string text )

let print_solution (sol, cost) = Reference.solution_to_string ?cost sol

let solution_outcomes text =
  ( outcome Reference.parse_solution print_solution text,
    outcome
      (fun t ->
        match Serialize.solution_of_string_result t with
        | Ok sol -> sol
        | Error e -> raise (Serialize.Parse_error e))
      print_solution text )

(* Differential: on random valid instances and their mutations, the
   scanner parser agrees with the reference (same instance, or the same
   error at the same line) except where the rejection rules differ on
   purpose; the solution parser agrees everywhere. *)
let serialize_differential_prop =
  QCheck.Test.make ~name:"parsers = list-based reference" ~count:1500
    (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Rng.create (seed + 1) in
      let inst = rich_instance rng in
      let text = Serialize.to_string inst in
      let text = if seed mod 8 = 0 then text else mutated rng text in
      let reference, fresh = instance_outcomes text in
      if reference <> fresh && not (sanctioned ~reference ~fresh) then
        QCheck.Test.fail_reportf "instance %S:@ reference %s@ scanner %s" text
          (show reference) (show fresh);
      let sol = random_solution rng inst in
      let cost = if Rng.bool rng then Some (Rng.float rng 9.0) else None in
      let text = Serialize.solution_to_string ?cost sol in
      let text = if seed mod 8 = 0 then text else mutated rng text in
      let reference, fresh = solution_outcomes text in
      if reference <> fresh then
        QCheck.Test.fail_reportf "solution %S:@ reference %s@ scanner %s" text
          (show reference) (show fresh);
      true)

(* Never raises: both non-raising entry points return on any mutation
   of either kind of text. *)
let serialize_never_raises_prop =
  QCheck.Test.make ~name:"result parsers never raise" ~count:1500
    (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Rng.create (seed + 1) in
      let inst = rich_instance rng in
      let texts =
        [ mutated rng (Serialize.to_string inst);
          mutated rng (Serialize.solution_to_string ~cost:1.5 (random_solution rng inst)) ]
      in
      List.iter
        (fun text ->
          ignore (Serialize.of_string_result text);
          ignore (Serialize.solution_of_string_result text))
        texts;
      true)

(* Number tokens around the fast paths' edges: 14-17 significant
   digits, net exponents around +-22, leading zeros, signs, points at
   either end, and tokens only the fallback reads. *)
let number_token rng =
  let digits k =
    String.init k (fun i -> if i = 0 && Rng.bernoulli rng 0.7 then Char.chr (49 + Rng.int rng 9) else Char.chr (48 + Rng.int rng 10))
  in
  match Rng.int rng 8 with
  | 0 -> odd_tokens.(Rng.int rng (Array.length odd_tokens))
  | 1 -> (List.nth [ "0"; "-0"; "-0.0"; ".5"; "5."; "-.5"; "."; "-"; "1e"; "1e+"; "e5"; "00012"; "1_000"; "0x10"; "1E5"; "1e+05"; "--1"; "5-" ] (Rng.int rng 18))
  | 2 -> digits (1 + Rng.int rng 20)
  | _ ->
    let sign = if Rng.bool rng then "-" else "" in
    let zeros = String.make (Rng.int rng 3) '0' in
    let mant = digits (13 + Rng.int rng 5) in
    let p = Rng.int rng (String.length mant + 1) in
    let mant =
      if Rng.bernoulli rng 0.7 then
        String.sub mant 0 p ^ "." ^ String.sub mant p (String.length mant - p)
      else mant
    in
    let exp =
      if Rng.bool rng then ""
      else
        Printf.sprintf "%c%s%d" (if Rng.bool rng then 'e' else 'E')
          (if Rng.bool rng then "+" else "")
          (Rng.int rng 51 - 25)
    in
    sign ^ zeros ^ mant ^ exp

(* Numbers: every number the scanner reads (a [cost] line, a routing
   amount, a coordinate) is bit-equal to [float_of_string_opt]'s, every
   id equal to [int_of_string_opt]'s, and a token either rejects is an
   error. *)
let serialize_numbers_prop =
  QCheck.Test.make ~name:"scanner numbers = stdlib conversions" ~count:3000
    (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Rng.create (seed + 1) in
      let tok = number_token rng in
      let bits = Option.map Int64.bits_of_float in
      let want = float_of_string_opt tok in
      let cost =
        match Serialize.solution_of_string_result ("[cost]\n" ^ tok ^ "\n") with
        | Ok (_, c) -> c
        | Error _ -> None
      in
      let amount =
        match
          Serialize.solution_of_string_result ("[routing]\ndemand 0 1 " ^ tok ^ "\n")
        with
        | Ok ({ Instance.routing = [ a ]; _ }, _) -> Some a.Routing.demand.Commodity.amount
        | _ -> None
      in
      let coord =
        match
          Serialize.of_string_result ("[graph]\n0 1 1\n[coords]\n0 " ^ tok ^ "\n0 0\n")
        with
        | Ok inst -> Option.map snd (Graph.coord inst.Instance.graph 0)
        | Error _ -> None
      in
      let want_coord = match want with Some f when Float.is_nan f -> None | w -> w in
      let want_id = match int_of_string_opt tok with Some i when i >= 0 -> Some i | _ -> None in
      let id =
        match Serialize.solution_of_string_result ("[repaired_edges]\n" ^ tok ^ "\n") with
        | Ok ({ Instance.repaired_edges = [ e ]; _ }, _) -> Some e
        | _ -> None
      in
      if bits cost <> bits want || bits amount <> bits want
         || bits coord <> bits want_coord || id <> want_id
      then QCheck.Test.fail_reportf "token %S" tok;
      true)

(* Encoder: the Buffer encoder writes the reference's bytes, on values
   where the integral shortcut and %.12g meet. *)
let serialize_encoder_prop =
  QCheck.Test.make ~name:"encoder = Printf reference" ~count:500
    (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Rng.create (seed + 1) in
      let special () =
        match Rng.int rng 8 with
        | 0 -> -0.0
        | 1 -> 1e12
        | 2 -> 999999999999.0
        | 3 -> 1e-5
        | 4 -> 0.1 +. 0.2
        | 5 -> -.float_of_int (Rng.int rng 1000)
        | 6 -> Float.infinity
        | _ -> Rng.float rng 1e13
      in
      let n = 2 + Rng.int rng 5 in
      let edges =
        List.init (1 + Rng.int rng 6) (fun _ ->
            let u = Rng.int rng n in
            (u, (u + 1 + Rng.int rng (n - 1)) mod n, Float.abs (special ())))
      in
      let g =
        Graph.make ~coords:(Array.init n (fun _ -> (special (), special ()))) ~n ~edges ()
      in
      let inst =
        make_inst
          ~vertex_cost:(Array.init n (fun _ -> special ()))
          ~edge_cost:(Array.init (Graph.ne g) (fun _ -> special ()))
          g
          [ demand ~amount:(1.0 +. Float.abs (special ())) 0 1 ]
          (Failure.of_lists g ~vertices:[ n - 1 ] ~edges:[ 0 ])
      in
      let sol = random_solution rng inst in
      let cost = special () in
      Serialize.to_string inst = Reference.to_string inst
      && Serialize.solution_to_string ~cost sol
         = Reference.solution_to_string ~cost sol)

(* The plan-xl instance shape at 5,000 vertices prints the bytes the
   Printf encoder printed (MD5s measured with it), and parses back to
   them. *)
let test_serialize_xl_text_pinned () =
  List.iter
    (fun (label, inst, md5) ->
      let text = Serialize.to_string inst in
      Alcotest.(check string) (label ^ " md5") md5 (Digest.to_hex (Digest.string text));
      Alcotest.(check bool) (label ^ " round trip") true
        (Serialize.to_string (Serialize.of_string text) = text))
    [ ( "scenario n=5000",
        Netrec_experiments.Fig9_xl.scenario ~n:5000 ~vmult:0.5 ~topo_seed:42
          ~fail_seed:7 ~demand_seed:13 (),
        "256bae34142e2188fe1d348715e2ad0a" );
      ( "smoke scenario",
        Netrec_experiments.Fig9_xl.smoke_scenario (),
        "d8f30215c773ee5a91bdf82c48aaeeb4" ) ]

(* The parsed plan-xl shape at 5,000 vertices holds its graph in about
   6 words per vertex + edge: edge and coordinate columns, the CSR, and
   no default-name strings.  Per-edge records, coordinate tuples or
   "v<i>" strings each push it well past the bound (12.0 words with all
   three). *)
let test_serialize_representation () =
  let inst =
    Netrec_experiments.Fig9_xl.scenario ~n:5000 ~vmult:0.5 ~topo_seed:42
      ~fail_seed:7 ~demand_seed:13 ()
  in
  let g = (Serialize.of_string (Serialize.to_string inst)).Instance.graph in
  let words = Obj.reachable_words (Obj.repr g) in
  let bound = 6 * (Graph.nv g + Graph.ne g) in
  if words > bound then
    Alcotest.failf "parsed graph holds %d words, over %d (6 per vertex + edge)"
      words bound

(* A [names] section of exactly v0 ... v(n-1) leaves the graph unnamed:
   it holds what the same text without [names] holds, names its
   vertices the same, and re-encodes to the same bytes.  Near misses
   keep every name as written. *)
let named_text names =
  let n = Array.length names in
  let g =
    Graph.make ~names ~n ~edges:(List.init (n - 1) (fun i -> (i, i + 1, 2.0))) ()
  in
  Serialize.to_string (make_inst g [ demand 0 (n - 1) ] (Failure.none g))

let test_serialize_default_names () =
  let defaults = Array.init 12 (fun i -> "v" ^ string_of_int i) in
  let text = named_text defaults in
  let g = (Serialize.of_string text).Instance.graph in
  Alcotest.(check string) "re-encodes" text
    (Serialize.to_string (Serialize.of_string text));
  Array.iteri (fun v s -> Alcotest.(check string) "name" s (Graph.name g v)) defaults;
  (* the same text with the [names] section cut out *)
  let lines = String.split_on_char '\n' text in
  let rec drop_names = function
    | "[names]" :: rest ->
      let rec skip = function
        | l :: rest when l <> "" && l.[0] <> '[' -> skip rest
        | rest -> rest
      in
      skip rest
    | l :: rest -> l :: drop_names rest
    | [] -> []
  in
  let unnamed =
    (Serialize.of_string (String.concat "\n" (drop_names lines))).Instance.graph
  in
  Alcotest.(check int) "no name strings"
    (Obj.reachable_words (Obj.repr unnamed))
    (Obj.reachable_words (Obj.repr g))

let test_serialize_near_default_names () =
  List.iter
    (fun (label, names) ->
      let text = named_text names in
      let g = (Serialize.of_string text).Instance.graph in
      Alcotest.(check string) (label ^ ": re-encodes") text
        (Serialize.to_string (Serialize.of_string text));
      Array.iteri
        (fun v s -> Alcotest.(check string) (label ^ ": name") s (Graph.name g v))
        names)
    [ ("v01", [| "v0"; "v01"; "v2" |]);
      ("v-1", [| "v0"; "v-1"; "v2" |]);
      ("V0", [| "V0"; "v1"; "v2" |]);
      ("out of order", [| "v1"; "v0"; "v2" |]);
      ("one renamed", [| "v0"; "v1"; "west"; "v3" |]);
      ("last renamed", [| "v0"; "v1"; "v2"; "v30" |]) ]

(* ---- Evaluate ---- *)

let test_evaluate_empty_solution_loss () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.complete g) in
  let f = Evaluate.satisfied_fraction inst Instance.empty_solution in
  Alcotest.(check (float 1e-9)) "nothing works" 0.0 f

let test_evaluate_repair_all_restores () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.complete g) in
  let f = Evaluate.satisfied_fraction inst (Instance.repair_all inst) in
  Alcotest.(check (float 1e-9)) "full" 1.0 f

let test_evaluate_partial_capacity () =
  let g = path_graph ~capacity:3.0 3 in
  let inst = make_inst g [ demand ~amount:6.0 0 2 ] (Failure.none g) in
  let r = Evaluate.assess inst Instance.empty_solution in
  Alcotest.(check (float 1e-6)) "half" 0.5 r.Evaluate.satisfied_fraction

(* Regression: validity is a single precondition on the solution's own
   routing.  An invalid routing (here: loaded paths over broken,
   unrepaired elements) must never beat the oracle's recomputation, even
   when it claims to route more. *)
let test_evaluate_invalid_routing_never_wins () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand ~amount:5.0 0 2 ] (Failure.complete g) in
  let routing =
    [ { Routing.demand = List.hd inst.Instance.demands;
        paths = [ ([ 0; 1 ], 5.0) ] } ]
  in
  let sol = { Instance.empty_solution with Instance.routing } in
  let r = Evaluate.assess inst sol in
  Alcotest.(check (float 1e-9)) "nothing served" 0.0
    r.Evaluate.satisfied_fraction;
  Alcotest.(check bool) "phantom routing dropped" true
    (r.Evaluate.routing != routing)

let test_evaluate_prefers_own_complete_routing () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand ~amount:5.0 0 2 ] (Failure.none g) in
  let routing =
    [ { Routing.demand = List.hd inst.Instance.demands;
        paths = [ ([ 0; 1 ], 5.0) ] } ]
  in
  let sol = { Instance.empty_solution with Instance.routing } in
  let r = Evaluate.assess inst sol in
  Alcotest.(check bool) "kept own routing" true (r.Evaluate.routing == routing)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netrec_core"
    [ ( "instance",
        [ tc "defaults" test_instance_defaults;
          tc "rejects bad demand" test_instance_rejects_bad_demand;
          tc "feasible when repaired" test_instance_feasible_when_repaired;
          tc "solution counters" test_solution_counters;
          tc "heterogeneous costs" test_repair_cost_heterogeneous;
          tc "repaired predicates" test_repaired_predicates;
          tc "valid rejects unbroken" test_valid_rejects_unbroken_repairs;
          tc "valid rejects duplicates" test_valid_rejects_duplicates;
          tc "repair all" test_repair_all ] );
      ( "centrality",
        [ tc "path interior" test_centrality_path_interior;
          tc "single covering path" test_centrality_splits_over_paths;
          tc "both paths when needed" test_centrality_uses_both_paths_when_needed;
          tc "best and contributors" test_centrality_best_and_contributors;
          tc "no demands" test_centrality_no_demands;
          tc "length metric bias" test_centrality_length_metric_bias;
          QCheck_alcotest.to_alcotest centrality_incremental_prop;
          QCheck_alcotest.to_alcotest isp_cache_bit_identical_prop;
          tc "repair-aware cache = from-scratch" test_centrality_repair_aware ] );
      ( "bubble",
        [ tc "whole graph" test_bubble_whole_graph_single_demand;
          tc "blocked by endpoints" test_bubble_blocked_by_other_endpoints;
          tc "prune routes demand" test_bubble_prune_routes_demand;
          tc "prune capped by flow" test_bubble_prune_capped_by_flow;
          tc "prune respects broken" test_bubble_prune_respects_broken;
          QCheck_alcotest.to_alcotest prune_preserves_routability_prop;
          QCheck_alcotest.to_alcotest bubble_closed_form_prop;
          QCheck_alcotest.to_alcotest bubble_cache_prop ] );
      ( "isp",
        [ tc "nothing broken" test_isp_nothing_broken;
          tc "no demands" test_isp_no_demands;
          tc "path complete destruction" test_isp_path_complete_destruction;
          tc "only needed branch" test_isp_only_needed_branch;
          tc "shares repairs" test_isp_shares_repairs_between_demands;
          tc "capacity conflicts" test_isp_respects_capacity_conflicts;
          tc "partial failure" test_isp_partial_failure;
          tc "broken endpoint" test_isp_broken_endpoint_repaired;
          tc "routing valid" test_isp_routing_is_valid;
          tc "deterministic" test_isp_deterministic;
          tc "heterogeneous costs" test_isp_heterogeneous_costs_prefer_cheap;
          tc "hop mode sound" test_isp_hop_mode_still_sound;
          tc "theta graph" test_isp_theta_graph;
          tc "theta two routes" test_isp_theta_needs_two_routes;
          tc "ladder cross demands" test_isp_ladder_cross_demands;
          QCheck_alcotest.to_alcotest isp_no_loss_prop;
          QCheck_alcotest.to_alcotest isp_no_worse_than_all_prop ] );
      ( "candidate_links",
        [ tc "extend instance" test_candidate_links_extend_instance;
          tc "enable recovery" test_candidate_links_enable_recovery;
          tc "choose cheaper" test_candidate_links_choose_cheaper ] );
      ( "schedule",
        [ tc "orders all repairs" test_schedule_orders_all_repairs;
          tc "greedy beats arbitrary" test_schedule_greedy_beats_or_ties_arbitrary;
          tc "empty solution" test_schedule_empty_solution;
          tc "malformed order table" test_schedule_malformed_table;
          tc "greedy rejects malformed solution"
            test_schedule_greedy_rejects_malformed_solution;
          tc "valid orders accepted" test_schedule_valid_orders_accepted;
          tc "perf sanity ~200 elements" test_schedule_perf_sanity ] );
      ( "render",
        [ tc "instance dot" test_render_instance_dot;
          tc "solution marks repairs" test_render_solution_marks_repairs ] );
      ( "serialize",
        [ tc "roundtrip" test_serialize_roundtrip;
          tc "names and coords" test_serialize_preserves_names_coords;
          tc "rejects garbage" test_serialize_rejects_garbage;
          tc "malformed table" test_serialize_malformed_table;
          tc "result ok" test_serialize_result_ok;
          tc "roundtrip property" test_serialize_roundtrip_property;
          tc "solutions agree" test_serialize_solutions_agree;
          tc "xl text pinned" test_serialize_xl_text_pinned;
          tc "representation" test_serialize_representation;
          tc "default names" test_serialize_default_names;
          tc "near-default names" test_serialize_near_default_names;
          QCheck_alcotest.to_alcotest serialize_differential_prop;
          QCheck_alcotest.to_alcotest serialize_never_raises_prop;
          QCheck_alcotest.to_alcotest serialize_numbers_prop;
          QCheck_alcotest.to_alcotest serialize_encoder_prop ] );
      ( "evaluate",
        [ tc "empty solution loss" test_evaluate_empty_solution_loss;
          tc "repair all restores" test_evaluate_repair_all_restores;
          tc "partial capacity" test_evaluate_partial_capacity;
          tc "invalid routing never wins" test_evaluate_invalid_routing_never_wins;
          tc "prefers own routing" test_evaluate_prefers_own_complete_routing ] ) ]
