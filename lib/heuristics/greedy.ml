module Num = Netrec_util.Num
module Commodity = Netrec_flow.Commodity
module Routing = Netrec_flow.Routing
module Oracle = Netrec_flow.Oracle
module Failure = Netrec_disrupt.Failure
open Netrec_core

(* Weight of a path: repair cost of its broken edges over its (nominal)
   bottleneck capacity, per the paper. *)
let path_weight inst p =
  let failure = inst.Instance.failure in
  let cost =
    List.fold_left
      (fun acc e ->
        if Failure.edge_broken failure e then
          acc +. inst.Instance.edge_cost.(e)
        else acc)
      0.0 p
  in
  let capacity =
    Paths.capacity ~cap:(Graph.capacity inst.Instance.graph) p
  in
  cost /. Float.max capacity Num.flow_eps

let sorted_paths ?max_per_pair inst =
  let enum =
    Path_enum.enumerate ?max_per_pair inst.Instance.graph
      inst.Instance.demands
  in
  List.stable_sort
    (fun (_, p1) (_, p2) ->
      compare (path_weight inst p1) (path_weight inst p2))
    enum.Path_enum.paths

(* ---- GRD-COM ---- *)

let grd_com ?max_per_pair inst =
  let g = inst.Instance.graph in
  let rep = Repairs.create inst in
  let paths = sorted_paths ?max_per_pair inst in
  let demands = Array.of_list inst.Instance.demands in
  let remaining = Array.map (fun d -> d.Commodity.amount) demands in
  let resid = Array.init (Graph.ne g) (Graph.capacity g) in
  let assignments = Array.make (Array.length demands) [] in
  let index_of d =
    let found = ref (-1) in
    Array.iteri (fun i d' -> if !found < 0 && d' == d then found := i) demands;
    !found
  in
  let commit i p amount =
    List.iter (fun e -> resid.(e) <- Float.max 0.0 (resid.(e) -. amount)) p;
    remaining.(i) <- remaining.(i) -. amount;
    assignments.(i) <- (p, amount) :: assignments.(i)
  in
  (* Opportunistic routing of demand [k] over the current repaired
     residual network (successive shortest working paths). *)
  let route_opportunistically k =
    let d = demands.(k) in
    let rec go () =
      if Num.positive ~eps:Num.flow_eps remaining.(k) then begin
        let edge_ok e =
          Repairs.edge_ok rep e && Num.positive ~eps:Num.flow_eps resid.(e)
        in
        match
          Dijkstra.shortest_path ~vertex_ok:(Repairs.vertex_ok rep) ~edge_ok
            ~length:(fun e -> 1.0 /. Float.max resid.(e) Num.flow_eps)
            g d.Commodity.src d.Commodity.dst
        with
        | None | Some [] -> ()
        | Some p ->
          let bottleneck =
            List.fold_left (fun a e -> Float.min a resid.(e)) infinity p
          in
          let amount = Float.min bottleneck remaining.(k) in
          if Num.positive ~eps:Num.flow_eps amount then begin
            commit k p amount;
            go ()
          end
      end
    in
    go ()
  in
  let all_satisfied () =
    Array.for_all (fun r -> not (Num.positive ~eps:Num.flow_eps r)) remaining
  in
  let rec consume = function
    | [] -> ()
    | _ when all_satisfied () -> ()
    | (d, p) :: rest ->
      let i = index_of d in
      if Num.positive ~eps:Num.flow_eps remaining.(i) then begin
        let cap_now =
          List.fold_left (fun a e -> Float.min a resid.(e)) infinity p
        in
        (* A saturated path cannot serve anybody: repairing it would only
           waste crews, so skip it. *)
        if Num.positive ~eps:Num.flow_eps cap_now then begin
          ignore (Repairs.repair_path rep p : bool);
          let amount = Float.min cap_now remaining.(i) in
          commit i p amount;
          (* Let every other demand use the newly repaired capacity. *)
          Array.iteri
            (fun k _ -> if k <> i then route_opportunistically k)
            demands
        end
      end;
      consume rest
  in
  consume paths;
  let routing =
    Array.to_list
      (Array.mapi
         (fun i demand -> { Routing.demand; paths = List.rev assignments.(i) })
         demands)
  in
  Repairs.solution ~routing rep

(* ---- GRD-NC ---- *)

let grd_nc ?max_per_pair inst =
  let g = inst.Instance.graph in
  let rep = Repairs.create inst in
  let paths = sorted_paths ?max_per_pair inst in
  let routable () =
    Oracle.routable ~vertex_ok:(Repairs.vertex_ok rep)
      ~edge_ok:(Repairs.edge_ok rep)
      ~cap:(Graph.capacity g) g inst.Instance.demands
  in
  let rec consume last = function
    | [] -> last
    | (_, p) :: rest ->
      (* Re-test only when the path actually repaired something new. *)
      if Repairs.repair_path rep p then begin
        match routable () with
        | Oracle.Routable r -> Some r
        | Oracle.Unroutable | Oracle.Unknown -> consume last rest
      end
      else consume last rest
  in
  (* The empty repair set might already be routable. *)
  let result =
    match routable () with
    | Oracle.Routable r -> Some r
    | Oracle.Unroutable | Oracle.Unknown -> consume None paths
  in
  Repairs.solution ?routing:result rep
