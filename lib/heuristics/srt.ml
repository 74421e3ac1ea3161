module Num = Netrec_util.Num
module Commodity = Netrec_flow.Commodity
open Netrec_core

let by_amount demands =
  List.sort (fun a b -> compare b.Commodity.amount a.Commodity.amount) demands

(* Endpoints must work even when the demand has no path at all. *)
let repair_endpoints rep d =
  ignore (Repairs.repair_vertex rep d.Commodity.src : bool);
  ignore (Repairs.repair_vertex rep d.Commodity.dst : bool)

let solve inst =
  let g = inst.Instance.graph in
  let rep = Repairs.create inst in
  List.iter
    (fun d ->
      (* S_i: first shortest paths (hop metric, full graph, nominal
         capacities) jointly covering the demand. *)
      let bundle =
        Paths.shortest_bundle
          ~length:(fun _ -> 1.0)
          ~cap:(Graph.capacity g) ~demand:d.Commodity.amount g d.Commodity.src
          d.Commodity.dst
      in
      List.iter
        (fun (p, _) -> ignore (Repairs.repair_path rep p : bool))
        bundle.Paths.paths;
      repair_endpoints rep d)
    (by_amount inst.Instance.demands);
  Repairs.solution rep

let solve_residual inst =
  let g = inst.Instance.graph in
  let rep = Repairs.create inst in
  let resid = Array.init (Graph.ne g) (Graph.capacity g) in
  let eps = Num.flow_eps in
  (* The §IV-D repair-cost-aware length ({!Repairs.length}) on the full
     graph with residual capacity.  An element already listed for repair
     (or never broken) adds no repair cost: marginal-cost semantics, not
     a "free path" fallback, while the constant hop term keeps every edge
     strictly positive-length.  It can therefore never make an unroutable
     demand look satisfied — when no residual path exists,
     [route_demand] below records the demand with whatever partial paths
     it found (possibly none) and the shortfall shows up in the routing's
     satisfaction (pinned by test_heuristics "srt residual unroutable"
     and the [Netrec_check] certifier). *)
  let length = Repairs.length rep ~resid in
  let assignments = ref [] in
  let route_demand d =
    repair_endpoints rep d;
    let rec go remaining acc =
      if remaining <= eps then List.rev acc
      else
        let edge_ok e = resid.(e) > eps in
        match
          Dijkstra.shortest_path ~edge_ok ~length g d.Commodity.src
            d.Commodity.dst
        with
        | None | Some [] -> List.rev acc
        | Some p ->
          let bottleneck =
            List.fold_left (fun a e -> Float.min a resid.(e)) infinity p
          in
          let send = Float.min bottleneck remaining in
          ignore (Repairs.repair_path rep p : bool);
          List.iter (fun e -> resid.(e) <- resid.(e) -. send) p;
          go (remaining -. send) ((p, send) :: acc)
    in
    let paths = go d.Commodity.amount [] in
    assignments := { Netrec_flow.Routing.demand = d; paths } :: !assignments
  in
  List.iter route_demand (by_amount inst.Instance.demands);
  Repairs.solution ~routing:(List.rev !assignments) rep
