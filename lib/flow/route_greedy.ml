module Num = Netrec_util.Num

let all _ = true

type metric = Hop | Inverse_capacity

(* Route one demand over the residual capacities [resid] (mutated on
   success only for the routed amount), returning the assigned paths. *)
let route_one ~vertex_ok ~edge_ok ~metric g resid demand =
  let open Commodity in
  let eps = Num.flow_eps in
  let edge_live e = edge_ok e && resid.(e) > eps in
  (* [Hop] is unit-length Dijkstra; the bidirectional search returns the
     very same path without settling the whole graph. *)
  let shortest_path =
    match metric with
    | Hop -> Bidir.path ~tie:Bidir.By_id
    | Inverse_capacity ->
      Dijkstra.shortest_path ~length:(fun e -> 1.0 /. Float.max resid.(e) eps)
  in
  let rec collect acc remaining =
    if remaining <= eps then Some (List.rev acc)
    else
      match
        shortest_path ~vertex_ok ~edge_ok:edge_live g demand.src demand.dst
      with
      | None | Some [] -> if acc = [] then None else Some (List.rev acc)
      | Some p ->
        let bottleneck =
          List.fold_left (fun a e -> Float.min a resid.(e)) infinity p
        in
        let send = Float.min bottleneck remaining in
        List.iter (fun e -> resid.(e) <- resid.(e) -. send) p;
        collect ((p, send) :: acc) (remaining -. send)
  in
  collect [] demand.amount

let attempt ~vertex_ok ~edge_ok ~cap ~metric g demands =
  let resid = Array.init (Graph.ne g) cap in
  List.map
    (fun demand ->
      let paths =
        Option.value ~default:[]
          (route_one ~vertex_ok ~edge_ok ~metric g resid demand)
      in
      { Routing.demand; paths })
    demands

let orders demands =
  let by_amount d d' = compare d'.Commodity.amount d.Commodity.amount in
  [ List.stable_sort by_amount demands;
    List.rev (List.stable_sort by_amount demands);
    demands ]

(* The portfolio as thunks, in the fixed deterministic order.  Lazy on
   purpose: on xl graphs an [Inverse_capacity] attempt costs |demands|
   Dijkstra runs over the whole graph, and the first attempt usually
   routes everything — evaluating the remaining five eagerly multiplied
   the final-routing cost of the sharded solver several-fold for
   identical output. *)
let portfolio ~vertex_ok ~edge_ok ~cap g demands =
  List.concat_map
    (fun order ->
      [ (fun () -> attempt ~vertex_ok ~edge_ok ~cap ~metric:Hop g order);
        (fun () ->
          attempt ~vertex_ok ~edge_ok ~cap ~metric:Inverse_capacity g order)
      ])
    (orders demands)

let complete demands routing =
  Num.geq ~eps:Num.feas_eps (Routing.total_routed routing) (Commodity.total demands)

let route_all ?(vertex_ok = all) ?(edge_ok = all) ~cap g demands =
  let demands = List.filter (fun d -> Num.positive ~eps:Num.flow_eps d.Commodity.amount) demands in
  if demands = [] then Some Routing.empty
  else
    let rec first = function
      | [] -> None
      | t :: rest ->
        let r = t () in
        if complete demands r then Some r else first rest
    in
    first (portfolio ~vertex_ok ~edge_ok ~cap g demands)

let route_max ?(vertex_ok = all) ?(edge_ok = all) ~cap g demands =
  let demands = List.filter (fun d -> Num.positive ~eps:Num.flow_eps d.Commodity.amount) demands in
  if demands = [] then Routing.empty
  else
    (* Same fold as an eager scan — first attempt reaching the maximum
       wins — but a complete routing ends the scan: no later attempt can
       strictly exceed the full demand, so the result is unchanged. *)
    let rec scan best = function
      | [] -> best
      | _ when complete demands best -> best
      | t :: rest ->
        let r = t () in
        scan
          (if Routing.total_routed r > Routing.total_routed best then r
           else best)
          rest
    in
    (match portfolio ~vertex_ok ~edge_ok ~cap g demands with
    | [] -> Routing.empty
    | t :: rest -> scan (t ()) rest)
