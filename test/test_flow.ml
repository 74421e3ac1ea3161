open Netrec_graph
open Netrec_flow
module Rng = Netrec_util.Rng

(* 4-cycle fixture: 0-1-2-3-0, unit capacities by default. *)
let cycle ?(capacity = 1.0) () =
  Graph.make ~n:4
    ~edges:[ (0, 1, capacity); (1, 2, capacity); (2, 3, capacity); (3, 0, capacity) ]
    ()

(* The bottleneck fixture from the graph tests. *)
let fixture () =
  Graph.make ~n:6
    ~edges:
      [ (0, 1, 10.0); (1, 2, 10.0); (0, 3, 10.0); (3, 4, 10.0); (4, 5, 10.0);
        (2, 5, 10.0); (1, 4, 3.0) ]
    ()

let cap_of g = Graph.capacity g

(* ---- Commodity ---- *)

let test_commodity_make_rejects () =
  Alcotest.check_raises "src=dst" (Invalid_argument "Commodity.make: src = dst")
    (fun () -> ignore (Commodity.make ~src:1 ~dst:1 ~amount:1.0));
  Alcotest.check_raises "negative"
    (Invalid_argument "Commodity.make: negative amount") (fun () ->
      ignore (Commodity.make ~src:0 ~dst:1 ~amount:(-1.0)))

let test_commodity_total () =
  let ds =
    [ Commodity.make ~src:0 ~dst:1 ~amount:2.0;
      Commodity.make ~src:1 ~dst:2 ~amount:3.0 ]
  in
  Alcotest.(check (float 1e-9)) "total" 5.0 (Commodity.total ds)

let test_commodity_endpoints () =
  let ds =
    [ Commodity.make ~src:3 ~dst:1 ~amount:1.0;
      Commodity.make ~src:1 ~dst:2 ~amount:1.0 ]
  in
  Alcotest.(check (list int)) "sorted distinct" [ 1; 2; 3 ]
    (Commodity.endpoints ds);
  Alcotest.(check bool) "is_endpoint" true (Commodity.is_endpoint ds 3);
  Alcotest.(check bool) "not endpoint" false (Commodity.is_endpoint ds 0)

let test_commodity_normalize_merges () =
  let ds =
    [ Commodity.make ~src:0 ~dst:1 ~amount:2.0;
      Commodity.make ~src:1 ~dst:0 ~amount:3.0;
      Commodity.make ~src:2 ~dst:3 ~amount:1e-12 ]
  in
  match Commodity.normalize ds with
  | [ d ] ->
    Alcotest.(check (float 1e-9)) "merged amount" 5.0 d.Commodity.amount
  | other ->
    Alcotest.failf "expected one demand, got %d" (List.length other)

(* ---- Routing ---- *)

let test_routing_edge_load_and_satisfies () =
  let g = cycle ~capacity:2.0 () in
  let d = Commodity.make ~src:0 ~dst:2 ~amount:2.0 in
  (* Route 1 unit each way around the cycle. *)
  let r =
    [ { Routing.demand = d; paths = [ ([ 0; 1 ], 1.0); ([ 3; 2 ], 1.0) ] } ]
  in
  let load = Routing.edge_load g r in
  Alcotest.(check (float 1e-9)) "edge 0 load" 1.0 load.(0);
  Alcotest.(check bool) "fits" true (Routing.satisfies g ~cap:(cap_of g) r);
  Alcotest.(check (float 1e-9)) "satisfaction" 1.0
    (Routing.satisfaction ~demands:[ d ] r)

let test_routing_detects_overload () =
  let g = cycle ~capacity:0.5 () in
  let d = Commodity.make ~src:0 ~dst:2 ~amount:2.0 in
  let r = [ { Routing.demand = d; paths = [ ([ 0; 1 ], 2.0) ] } ] in
  Alcotest.(check bool) "overload" false (Routing.satisfies g ~cap:(cap_of g) r)

let test_routing_detects_wrong_path () =
  let g = cycle () in
  let d = Commodity.make ~src:0 ~dst:2 ~amount:1.0 in
  (* Path [0] goes 0->1, not 0->2. *)
  let r = [ { Routing.demand = d; paths = [ ([ 0 ], 1.0) ] } ] in
  Alcotest.(check bool) "wrong endpoint" false
    (Routing.satisfies g ~cap:(cap_of g) r)

let test_routing_partial_satisfaction () =
  let d = Commodity.make ~src:0 ~dst:2 ~amount:4.0 in
  let r = [ { Routing.demand = d; paths = [ ([ 0; 1 ], 1.0) ] } ] in
  Alcotest.(check (float 1e-9)) "quarter" 0.25
    (Routing.satisfaction ~demands:[ d ] r)

(* ---- Route_greedy ---- *)

let test_greedy_routes_single () =
  let g = fixture () in
  let d = [ Commodity.make ~src:0 ~dst:5 ~amount:15.0 ] in
  match Route_greedy.route_all ~cap:(cap_of g) g d with
  | Some r ->
    Alcotest.(check (float 1e-6)) "all routed" 15.0 (Routing.total_routed r);
    Alcotest.(check bool) "fits" true (Routing.satisfies g ~cap:(cap_of g) r)
  | None -> Alcotest.fail "expected routable"

let test_greedy_respects_capacity () =
  let g = fixture () in
  (* Max flow 0->5 is 20; 21 must fail. *)
  let d = [ Commodity.make ~src:0 ~dst:5 ~amount:21.0 ] in
  Alcotest.(check bool) "unroutable" true
    (Route_greedy.route_all ~cap:(cap_of g) g d = None)

let test_greedy_two_commodities_on_cycle () =
  (* Capacity 2 leaves slack, so sequential routing succeeds regardless
     of the side each demand picks.  (With capacity 1 the instance is
     still routable but needs the LP's coordination — see the oracle
     escalation test below.) *)
  let g = cycle ~capacity:2.0 () in
  let d =
    [ Commodity.make ~src:0 ~dst:2 ~amount:1.0;
      Commodity.make ~src:1 ~dst:3 ~amount:1.0 ]
  in
  match Route_greedy.route_all ~cap:(cap_of g) g d with
  | Some r ->
    Alcotest.(check (float 1e-6)) "both routed" 2.0 (Routing.total_routed r)
  | None -> Alcotest.fail "two unit demands fit a capacity-2 cycle"

let test_greedy_route_max_partial () =
  let g = Graph.make ~n:2 ~edges:[ (0, 1, 3.0) ] () in
  let d = [ Commodity.make ~src:0 ~dst:1 ~amount:5.0 ] in
  let r = Route_greedy.route_max ~cap:(cap_of g) g d in
  Alcotest.(check (float 1e-6)) "partial" 3.0 (Routing.total_routed r)

let test_greedy_respects_broken () =
  let g = fixture () in
  let d = [ Commodity.make ~src:0 ~dst:5 ~amount:1.0 ] in
  let vertex_ok v = v <> 1 && v <> 4 in
  Alcotest.(check bool) "no path" true
    (Route_greedy.route_all ~vertex_ok ~cap:(cap_of g) g d = None)

(* ---- Mcf_lp ---- *)

let test_mcf_lp_feasible_cycle () =
  let g = cycle () in
  let d =
    [ Commodity.make ~src:0 ~dst:2 ~amount:1.0;
      Commodity.make ~src:1 ~dst:3 ~amount:1.0 ]
  in
  match Mcf_lp.feasible ~cap:(cap_of g) g d with
  | Mcf_lp.Routable r ->
    Alcotest.(check bool) "routing fits" true
      (Routing.satisfies g ~cap:(cap_of g) r);
    Alcotest.(check (float 1e-6)) "complete" 2.0 (Routing.total_routed r)
  | _ -> Alcotest.fail "expected routable"

let test_mcf_lp_infeasible () =
  let g = cycle () in
  (* Three unit demands across the cycle exceed its capacity (each uses
     at least 2 of the 4 unit edges -> 6 > 4 edge-units). *)
  let d =
    [ Commodity.make ~src:0 ~dst:2 ~amount:1.0;
      Commodity.make ~src:1 ~dst:3 ~amount:1.0;
      Commodity.make ~src:0 ~dst:2 ~amount:1.0 ]
  in
  Alcotest.(check bool) "unroutable" true
    (Mcf_lp.feasible ~cap:(cap_of g) g d = Mcf_lp.Unroutable)

let test_mcf_lp_too_big () =
  let g = fixture () in
  let d = [ Commodity.make ~src:0 ~dst:5 ~amount:1.0 ] in
  Alcotest.(check bool) "budget" true
    (Mcf_lp.feasible ~var_budget:3 ~cap:(cap_of g) g d = Mcf_lp.Too_big)

let test_mcf_lp_broken_endpoint () =
  let g = fixture () in
  let d = [ Commodity.make ~src:0 ~dst:5 ~amount:1.0 ] in
  let vertex_ok v = v <> 0 in
  Alcotest.(check bool) "endpoint down" true
    (Mcf_lp.feasible ~vertex_ok ~cap:(cap_of g) g d = Mcf_lp.Unroutable)

let test_mcf_lp_max_scale_split () =
  (* The paper's dx LP on the path 0-1-2-3 (caps 10): splitting demand
     (0,3) of 5 on vertex 1 allows dx = 5 (complete split). *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 10.0); (1, 2, 10.0); (2, 3, 10.0) ] ()
  in
  let h = Commodity.make ~src:0 ~dst:3 ~amount:5.0 in
  let param =
    [ (h, -1.0);
      (Commodity.make ~src:0 ~dst:1 ~amount:0.0, 1.0);
      (Commodity.make ~src:1 ~dst:3 ~amount:0.0, 1.0) ]
  in
  match Mcf_lp.max_scale ~cap:(cap_of g) ~tmax:5.0 g param with
  | `Max dx -> Alcotest.(check (float 1e-6)) "dx" 5.0 dx
  | _ -> Alcotest.fail "expected a maximum"

let test_mcf_lp_max_scale_capacity_bound () =
  (* Splitting through the weak chord 1-4 (cap 3) bounds dx at 3. *)
  let g = fixture () in
  let h = Commodity.make ~src:1 ~dst:5 ~amount:10.0 in
  (* Force everything through vertex... route (1,4) then (4,5):
     max through = min(maxflow(1,4), maxflow(4,5)) given other edges.
     Single chord path 1-4 has cap 3, but 1-0-3-4 adds 10. *)
  let param =
    [ (h, -1.0);
      (Commodity.make ~src:1 ~dst:4 ~amount:0.0, 1.0);
      (Commodity.make ~src:4 ~dst:5 ~amount:0.0, 1.0) ]
  in
  match Mcf_lp.max_scale ~cap:(cap_of g) ~tmax:10.0 g param with
  | `Max dx ->
    (* (4,5) edge caps the second leg at 10, (1,4)+(1,0,3,4) give 13;
       but leg 2 shares nothing, so dx = min(10, 13, 10) = 10. *)
    Alcotest.(check (float 1e-6)) "dx bounded" 10.0 dx
  | _ -> Alcotest.fail "expected a maximum"

let test_mcf_lp_max_total () =
  let g = Graph.make ~n:2 ~edges:[ (0, 1, 3.0) ] () in
  let d = [ Commodity.make ~src:0 ~dst:1 ~amount:5.0 ] in
  match Mcf_lp.max_total ~cap:(cap_of g) g d with
  | `Routing r ->
    Alcotest.(check (float 1e-6)) "capped at capacity" 3.0
      (Routing.total_routed r)
  | _ -> Alcotest.fail "expected a routing"

let test_mcf_lp_max_total_dead_endpoint () =
  let g = fixture () in
  let d =
    [ Commodity.make ~src:0 ~dst:5 ~amount:2.0;
      Commodity.make ~src:2 ~dst:3 ~amount:2.0 ]
  in
  let vertex_ok v = v <> 2 in
  match Mcf_lp.max_total ~vertex_ok ~cap:(cap_of g) g d with
  | `Routing r ->
    (* Only the first demand can be served. *)
    Alcotest.(check (float 1e-6)) "partial" 2.0 (Routing.total_routed r)
  | _ -> Alcotest.fail "expected a routing"

(* Each solve records the rise of its own domain's simplex.pivots as
   mcf.feasible_pivots, so solves running concurrently on other domains
   never leak into it: over a 2-domain batch both counters rise by the
   same amount. *)
let test_mcf_lp_pivots_per_domain () =
  let module Obs = Netrec_obs.Obs in
  let module Pool = Netrec_parallel.Pool in
  let g = Netrec_topo.Bell_canada.graph () in
  let batch =
    Array.init 64 (fun i ->
        Netrec_experiments.Common.feasible_demands ~rng:(Rng.create i)
          ~count:4 ~amount:10.0 g)
  in
  let read () =
    (Obs.counter_value "simplex.pivots", Obs.counter_value "mcf.feasible_pivots")
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let simplex0, mcf0 = read () in
  ignore
    (Pool.map (Pool.create ~jobs:2)
       (fun _ d -> Mcf_lp.feasible ~cap:(cap_of g) g d)
       batch);
  let simplex1, mcf1 = read () in
  Obs.set_enabled was;
  Alcotest.(check bool) "the solves pivoted" true (simplex1 > simplex0);
  Alcotest.(check int) "mcf.feasible_pivots rise = simplex.pivots rise"
    (simplex1 - simplex0) (mcf1 - mcf0)

(* ---- Gk ---- *)

let test_gk_certifies_feasible () =
  let g = fixture () in
  let d = [ Commodity.make ~src:0 ~dst:5 ~amount:10.0 ] in
  let { Gk.lambda; routing } =
    Gk.max_concurrent ~eps:0.05 ~cap:(cap_of g) g d
  in
  Alcotest.(check bool) "lambda >= 1" true (lambda >= 1.0);
  Alcotest.(check bool) "routing fits" true
    (Routing.satisfies g ~cap:(cap_of g) routing);
  Alcotest.(check (float 1e-3)) "serves the demand" 10.0
    (Routing.total_routed routing)

let test_gk_detects_overload () =
  let g = cycle () in
  let d = [ Commodity.make ~src:0 ~dst:2 ~amount:10.0 ] in
  (* lambda* = 2/10 = 0.2 *)
  let { Gk.lambda; _ } = Gk.max_concurrent ~eps:0.05 ~cap:(cap_of g) g d in
  Alcotest.(check bool) "low lambda" true (lambda < 0.3)

let test_gk_disconnected () =
  let g = Graph.make ~n:3 ~edges:[ (0, 1, 1.0) ] () in
  let d = [ Commodity.make ~src:0 ~dst:2 ~amount:1.0 ] in
  let { Gk.lambda; _ } = Gk.max_concurrent ~cap:(cap_of g) g d in
  Alcotest.(check (float 1e-9)) "zero" 0.0 lambda

let test_gk_max_sum_respects_caps () =
  let g = fixture () in
  let d =
    [ Commodity.make ~src:0 ~dst:5 ~amount:30.0;
      Commodity.make ~src:2 ~dst:3 ~amount:30.0 ]
  in
  let r = Gk.max_sum ~eps:0.05 ~cap:(cap_of g) g d in
  Alcotest.(check bool) "feasible" true (Routing.satisfies g ~cap:(cap_of g) r)

let test_gk_max_sum_near_optimal_single () =
  (* Single demand of 30 on a graph with max flow 20: max-sum should
     serve close to 20. *)
  let g = fixture () in
  let d = [ Commodity.make ~src:0 ~dst:5 ~amount:30.0 ] in
  let r = Gk.max_sum ~eps:0.05 ~cap:(cap_of g) g d in
  let total = Routing.total_routed r in
  Alcotest.(check bool) "near 20" true (total >= 16.0 && total <= 20.0 +. 1e-6)

let test_gk_max_sum_caps_demand () =
  (* Demand 5 on a fat graph: serve exactly 5, not more. *)
  let g = fixture () in
  let d = [ Commodity.make ~src:0 ~dst:5 ~amount:5.0 ] in
  let r = Gk.max_sum ~eps:0.05 ~cap:(cap_of g) g d in
  Alcotest.(check bool) "at most demand" true
    (Routing.total_routed r <= 5.0 +. 1e-6);
  Alcotest.(check bool) "most of it" true (Routing.total_routed r >= 4.0)

let test_gk_max_sum_empty () =
  let g = fixture () in
  Alcotest.(check int) "no assignments" 0
    (List.length (Gk.max_sum ~cap:(cap_of g) g []))

let gk_feasibility_certificate_prop =
  QCheck.Test.make ~name:"gk routing always capacity-feasible" ~count:25
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:12 ~p:0.4 ~capacity:5.0
      in
      let n = Graph.nv g in
      if Graph.ne g < 3 then true
      else begin
        let d =
          [ Commodity.make ~src:0 ~dst:(n - 1) ~amount:3.0;
            Commodity.make ~src:1 ~dst:(n - 2) ~amount:2.0 ]
        in
        let { Gk.routing; _ } =
          Gk.max_concurrent ~eps:0.1 ~cap:(cap_of g) g d
        in
        Routing.satisfies g ~cap:(cap_of g) routing
      end)

(* ---- Oracle ---- *)

let test_oracle_empty_demands () =
  let g = cycle () in
  Alcotest.(check bool) "trivially routable" true
    (match Oracle.routable ~cap:(cap_of g) g [] with
    | Oracle.Routable _ -> true
    | _ -> false)

let test_oracle_connectivity_shortcut () =
  let g = Graph.make ~n:3 ~edges:[ (0, 1, 1.0) ] () in
  let d = [ Commodity.make ~src:0 ~dst:2 ~amount:1.0 ] in
  Alcotest.(check bool) "unroutable" true
    (Oracle.routable ~cap:(cap_of g) g d = Oracle.Unroutable)

let test_oracle_escalates_to_lp () =
  (* A case greedy sequential routing fails but the LP solves: the
     "fish" instance — two demands whose greedy-first path choice blocks
     the other, while a coordinated split works. *)
  let g = cycle () in
  let d =
    [ Commodity.make ~src:0 ~dst:2 ~amount:1.0;
      Commodity.make ~src:1 ~dst:3 ~amount:1.0 ]
  in
  match Oracle.routable ~cap:(cap_of g) g d with
  | Oracle.Routable r ->
    Alcotest.(check bool) "fits" true (Routing.satisfies g ~cap:(cap_of g) r)
  | _ -> Alcotest.fail "expected routable"

let test_oracle_zero_capacity_edges () =
  let g = Graph.make ~n:2 ~edges:[ (0, 1, 1.0) ] () in
  let d = [ Commodity.make ~src:0 ~dst:1 ~amount:0.5 ] in
  Alcotest.(check bool) "capacity exhausted" true
    (Oracle.routable ~cap:(fun _ -> 0.0) g d = Oracle.Unroutable)

let test_oracle_max_satisfiable () =
  let g = Graph.make ~n:2 ~edges:[ (0, 1, 3.0) ] () in
  let d = [ Commodity.make ~src:0 ~dst:1 ~amount:5.0 ] in
  let r = Oracle.max_satisfiable ~cap:(cap_of g) g d in
  Alcotest.(check (float 1e-6)) "3 of 5" 3.0 (Routing.total_routed r)

(* A single commodity's multicommodity LP degenerates to max flow:
   max_total must match Dinic's value exactly. *)
let mcf_single_equals_maxflow_prop =
  QCheck.Test.make ~name:"single-commodity max_total = max flow" ~count:25
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 200) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:9 ~p:0.4 ~capacity:3.0
      in
      let n = Graph.nv g in
      let flow = Maxflow.max_flow_value g ~source:0 ~sink:(n - 1) in
      let big_demand = flow +. 10.0 in
      match
        Mcf_lp.max_total ~cap:(cap_of g) g
          [ Commodity.make ~src:0 ~dst:(n - 1) ~amount:big_demand ]
      with
      | `Routing r -> abs_float (Routing.total_routed r -. flow) < 1e-5
      | `Too_big | `Undecided -> true)

(* GK max_sum is a certified lower bound of the exact max_total LP. *)
let gk_max_sum_lower_bound_prop =
  QCheck.Test.make ~name:"gk max_sum <= exact max_total" ~count:15
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 300) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:10 ~p:0.4 ~capacity:4.0
      in
      let n = Graph.nv g in
      let demands =
        [ Commodity.make ~src:0 ~dst:(n - 1) ~amount:6.0;
          Commodity.make ~src:1 ~dst:(n - 2) ~amount:6.0 ]
      in
      let gk = Gk.max_sum ~eps:0.1 ~cap:(cap_of g) g demands in
      match Mcf_lp.max_total ~cap:(cap_of g) g demands with
      | `Routing lp ->
        Routing.total_routed gk <= Routing.total_routed lp +. 1e-5
        && Routing.satisfies g ~cap:(cap_of g) gk
      | `Too_big | `Undecided -> true)

(* dx from max_scale can never exceed the demand nor break feasibility:
   re-checking the scaled demand set must stay routable. *)
let max_scale_sound_prop =
  QCheck.Test.make ~name:"max_scale result is actually routable" ~count:15
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 400) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:8 ~p:0.5 ~capacity:5.0
      in
      let n = Graph.nv g in
      if not (Netrec_graph.Traverse.is_connected g) then true
      else begin
        let h = Commodity.make ~src:0 ~dst:(n - 1) ~amount:4.0 in
        let mid = n / 2 in
        if mid = 0 || mid = n - 1 then true
        else begin
          let param =
            [ (h, -1.0);
              (Commodity.make ~src:0 ~dst:mid ~amount:0.0, 1.0);
              (Commodity.make ~src:mid ~dst:(n - 1) ~amount:0.0, 1.0) ]
          in
          match Mcf_lp.max_scale ~cap:(cap_of g) ~tmax:4.0 g param with
          | `Too_big | `Undecided -> true
          | `Max dx ->
            dx <= 4.0 +. 1e-6
            &&
            (dx <= 1e-9
            ||
            let demands' =
              [ { h with Commodity.amount = 4.0 -. dx };
                Commodity.make ~src:0 ~dst:mid ~amount:dx;
                Commodity.make ~src:mid ~dst:(n - 1) ~amount:dx ]
              |> List.filter (fun d -> d.Commodity.amount > 1e-9)
            in
            (match Mcf_lp.feasible ~cap:(cap_of g) g demands' with
            | Mcf_lp.Routable _ -> true
            | Mcf_lp.Unroutable -> false
            | _ -> true))
        end
      end)

let oracle_matches_lp_prop =
  QCheck.Test.make ~name:"oracle verdict consistent with exact LP" ~count:20
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:10 ~p:0.35 ~capacity:2.0
      in
      let n = Graph.nv g in
      let d =
        [ Commodity.make ~src:0 ~dst:(n - 1) ~amount:1.5;
          Commodity.make ~src:1 ~dst:(n - 2) ~amount:1.5 ]
      in
      let oracle = Oracle.routable ~cap:(cap_of g) g d in
      let lp = Mcf_lp.feasible ~cap:(cap_of g) g d in
      match (oracle, lp) with
      | Oracle.Routable _, Mcf_lp.Routable _ -> true
      | Oracle.Unroutable, Mcf_lp.Unroutable -> true
      | Oracle.Unknown, _ -> true (* inconclusive is allowed *)
      | _ -> false)

(* ---- pinned LP answers ---- *)

(* Counter rises across [f ()], with the collector on. *)
let counter_rises keys f =
  let module Obs = Netrec_obs.Obs in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let before = List.map Obs.counter_value keys in
  let r = f () in
  let rises = List.map2 (fun k b -> Obs.counter_value k - b) keys before in
  Obs.set_enabled was;
  (r, rises)

(* The MD5 of a routing's demands, paths and amounts, floats in hex. *)
let routing_md5 (r : Routing.t) =
  let b = Buffer.create 256 in
  List.iter
    (fun (a : Routing.assignment) ->
      let d = a.Routing.demand in
      Printf.bprintf b "%d>%d %h:" d.Commodity.src d.Commodity.dst
        d.Commodity.amount;
      List.iter
        (fun (p, x) ->
          Printf.bprintf b " [%s] %h"
            (String.concat "," (List.map string_of_int p))
            x)
        a.Routing.paths;
      Buffer.add_char b '\n')
    r;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Bell-Canada with four feasible pairs of ten units (seed 1). *)
let bell_canada_pairs () =
  let g = Netrec_topo.Bell_canada.graph () in
  ( g,
    Netrec_experiments.Common.feasible_demands ~rng:(Rng.create 1) ~count:4
      ~amount:10.0 g )

(* The [vertex_ok]/[edge_ok] predicates of a uniform failure drawn from
   [seed] (10% of the vertices, 20% of the edges). *)
let uniform_ok g seed =
  let f =
    Netrec_disrupt.Models.uniform ~rng:(Rng.create seed) ~p_vertex:0.1
      ~p_edge:0.2 g
  in
  ( (fun v -> not (Netrec_disrupt.Failure.vertex_broken f v)),
    fun e -> not (Netrec_disrupt.Failure.edge_broken f e) )

(* The other Mcf_lp tests check verdicts and values to 1e-6.  These
   solves pin the split LP and the max-total LP exactly: the bits of the
   optimum, the MD5 of the routing and the rise of the entry point's
   pivot counter, as the LPs gave them when they were written.  The
   failure predicates leave edges out of the flow block, and uniform
   seed 4 breaks an endpoint of one demand. *)
let test_mcf_lp_pinned () =
  let g, demands = bell_canada_pairs () in
  let h = List.hd demands in
  let src = h.Commodity.src and dst = h.Commodity.dst in
  let intact = ((fun _ -> true), fun _ -> true) in
  let seed3 = uniform_ok g 3 and seed4 = uniform_ok g 4 in
  let half e = 0.5 *. Graph.capacity g e in
  let ratio =
    List.map
      (fun d -> ({ d with Commodity.amount = 0.0 }, d.Commodity.amount))
      demands
  in
  let split v =
    [ (h, -1.0);
      (Commodity.make ~src ~dst:v ~amount:0.0, 1.0);
      (Commodity.make ~src:v ~dst ~amount:0.0, 1.0) ]
  in
  List.iter
    (fun (name, (vertex_ok, edge_ok), cap, tmax, param, bits, pivots) ->
      match
        counter_rises [ "mcf.max_scale_pivots" ] (fun () ->
            Mcf_lp.max_scale ~vertex_ok ~edge_ok ~cap ~tmax g param)
      with
      | `Max x, rises ->
        Alcotest.(check int64) (name ^ " value bits") bits
          (Int64.bits_of_float x);
        Alcotest.(check (list int)) (name ^ " pivots") [ pivots ] rises
      | _ -> Alcotest.failf "%s: no maximum" name)
    [ ("ratio intact", intact, cap_of g, infinity, ratio, 0x4000000000036f9cL,
       112);
      ("ratio seed 3", seed3, cap_of g, infinity, ratio, 0x3ff4000000000000L,
       111);
      ("split at 5 seed 3", seed3, half, 10.0, split 5, 0x4014000000000000L,
       65);
      ("split at 30 seed 3", seed3, half, 10.0, split 30, 0x4024000000000000L,
       99) ];
  List.iter
    (fun (name, (vertex_ok, edge_ok), cap, bits, md5, pivots) ->
      match
        counter_rises [ "mcf.max_total_pivots" ] (fun () ->
            Mcf_lp.max_total ~vertex_ok ~edge_ok ~cap g demands)
      with
      | `Routing r, rises ->
        Alcotest.(check int64) (name ^ " routed bits") bits
          (Int64.bits_of_float (Routing.total_routed r));
        Alcotest.(check string) (name ^ " routing md5") md5 (routing_md5 r);
        Alcotest.(check (list int)) (name ^ " pivots") [ pivots ] rises
      | _ -> Alcotest.failf "%s: no routing" name)
    [ ("half caps intact", intact, half, 0x40440000000225c2L,
       "98663ef1ae46cca43f476bc7681aff73", 96);
      ("seed 3", seed3, cap_of g, 0x4044000000000000L,
       "1cfd0107a1eef10ddb8bc58032d4cb93", 91);
      ("seed 4", seed4, cap_of g, 0x4034000000000000L,
       "5453f69f923a9584a23771f536273d3f", 61) ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netrec_flow"
    [ ( "commodity",
        [ tc "make rejects" test_commodity_make_rejects;
          tc "total" test_commodity_total;
          tc "endpoints" test_commodity_endpoints;
          tc "normalize merges" test_commodity_normalize_merges ] );
      ( "routing",
        [ tc "edge load + satisfies" test_routing_edge_load_and_satisfies;
          tc "detects overload" test_routing_detects_overload;
          tc "detects wrong path" test_routing_detects_wrong_path;
          tc "partial satisfaction" test_routing_partial_satisfaction ] );
      ( "route_greedy",
        [ tc "routes single" test_greedy_routes_single;
          tc "respects capacity" test_greedy_respects_capacity;
          tc "two commodities on cycle" test_greedy_two_commodities_on_cycle;
          tc "route_max partial" test_greedy_route_max_partial;
          tc "respects broken" test_greedy_respects_broken ] );
      ( "mcf_lp",
        [ tc "feasible cycle" test_mcf_lp_feasible_cycle;
          tc "infeasible" test_mcf_lp_infeasible;
          tc "too big" test_mcf_lp_too_big;
          tc "broken endpoint" test_mcf_lp_broken_endpoint;
          tc "max_scale split" test_mcf_lp_max_scale_split;
          tc "max_scale capacity bound" test_mcf_lp_max_scale_capacity_bound;
          tc "max_total" test_mcf_lp_max_total;
          tc "max_total dead endpoint" test_mcf_lp_max_total_dead_endpoint;
          tc "pivots counted per domain" test_mcf_lp_pivots_per_domain;
          QCheck_alcotest.to_alcotest mcf_single_equals_maxflow_prop;
          QCheck_alcotest.to_alcotest max_scale_sound_prop;
          QCheck_alcotest.to_alcotest gk_max_sum_lower_bound_prop;
          tc "pinned" test_mcf_lp_pinned ] );
      ( "gk",
        [ tc "certifies feasible" test_gk_certifies_feasible;
          tc "detects overload" test_gk_detects_overload;
          tc "disconnected" test_gk_disconnected;
          tc "max_sum respects caps" test_gk_max_sum_respects_caps;
          tc "max_sum near optimal" test_gk_max_sum_near_optimal_single;
          tc "max_sum caps demand" test_gk_max_sum_caps_demand;
          tc "max_sum empty" test_gk_max_sum_empty;
          QCheck_alcotest.to_alcotest gk_feasibility_certificate_prop ] );
      ( "oracle",
        [ tc "empty demands" test_oracle_empty_demands;
          tc "connectivity shortcut" test_oracle_connectivity_shortcut;
          tc "escalates to lp" test_oracle_escalates_to_lp;
          tc "zero capacity" test_oracle_zero_capacity_edges;
          tc "max satisfiable" test_oracle_max_satisfiable;
          QCheck_alcotest.to_alcotest oracle_matches_lp_prop ] ) ]
