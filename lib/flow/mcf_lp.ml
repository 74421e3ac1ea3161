module Lp = Netrec_lp.Lp
module Presolve = Netrec_lp.Presolve
module Num = Netrec_util.Num
module Obs = Netrec_obs.Obs

(* ---- the flow block ---- *)

(* Flow variables are laid out commodity-major in block-edge order from
   [base], so their indices are arithmetic: no per-edge hash lookups
   anywhere in a build or an extraction. *)
type block = {
  g : Graph.t;
  base : int;
  nh : int;
  nedges : int;
  slot : int array;  (* edge id -> position among the block's edges, or -1 *)
}

let block ?ub ?cost lp g ~ncommodities edges =
  let slot = Array.make (Graph.ne g) (-1) in
  List.iteri (fun i e -> slot.(e) <- i) edges;
  let base = Lp.nvars lp in
  for _h = 1 to ncommodities do
    List.iter
      (fun e ->
        let ub = match ub with Some f -> f e | None -> infinity in
        let obj = match cost with Some f -> f e | None -> 0.0 in
        ignore (Lp.add_var lp ~ub ~obj ());
        ignore (Lp.add_var lp ~ub ~obj ()))
      edges
  done;
  { g; base; nh = ncommodities; nedges = List.length edges; slot }

let fwd b h e = b.base + (2 * ((h * b.nedges) + b.slot.(e)))
let bwd b h e = fwd b h e + 1
let mem b e = b.slot.(e) >= 0

let load b e =
  List.concat
    (List.init b.nh (fun h -> [ (fwd b h e, 1.0); (bwd b h e, 1.0) ]))

(* Forward flow runs from an edge's first endpoint to its second. *)
let net_outflow b h v =
  Graph.fold_incident b.g v
    (fun acc _ e ->
      if not (mem b e) then acc
      else
        let out = if fst (Graph.endpoints b.g e) = v then 1.0 else -1.0 in
        (fwd b h e, out) :: (bwd b h e, -.out) :: acc)
    []

let supply (d : Commodity.t) v =
  if v = d.Commodity.src then d.Commodity.amount
  else if v = d.Commodity.dst then -.d.Commodity.amount
  else 0.0

let routing b demands values =
  List.mapi
    (fun h (demand : Commodity.t) ->
      let edge_flow = Array.make (Graph.ne b.g) 0.0 in
      Array.iteri
        (fun e i ->
          if i >= 0 then
            edge_flow.(e) <- values.(fwd b h e) -. values.(bwd b h e))
        b.slot;
      let paths =
        Maxflow.decompose b.g ~source:demand.Commodity.src
          ~sink:demand.Commodity.dst
          { Maxflow.value = 0.0; edge_flow }
      in
      { Routing.demand; paths })
    demands

(* ---- the three LPs ---- *)

type verdict =
  | Routable of Routing.t
  | Unroutable
  | Too_big
  | Undecided

let all _ = true
let default_budget = 6000

let live_edges ~vertex_ok ~edge_ok ~cap g =
  Graph.fold_edges
    (fun e acc ->
      if edge_ok e.Graph.id && vertex_ok e.Graph.u && vertex_ok e.Graph.v
         && Num.positive ~eps:Num.cap_eps (cap e.Graph.id)
      then e.Graph.id :: acc
      else acc)
    g []
  |> List.rev

(* The block over the live edges and their capacity rows; every entry
   point then adds, for each commodity [h] and usable vertex [v], the
   conservation row  net outflow + [extra h v] = [rhs h v]. *)
let build ~vertex_ok ~cap g ~ncommodities ~live =
  let lp = Lp.create () in
  let flows = block lp g ~ncommodities live in
  List.iter (fun e -> Lp.add_constraint lp (load flows e) Lp.Le (cap e)) live;
  let conservation ~extra ~rhs =
    for h = 0 to ncommodities - 1 do
      List.iter
        (fun v ->
          if vertex_ok v then
            Lp.add_constraint lp (extra h v @ net_outflow flows h v) Lp.Eq
              (rhs h v))
        (Graph.vertices g)
    done
  in
  (lp, flows, conservation)

(* Presolve and solve, counting the solve and its pivots on this
   domain under [solves] and [pivots]. *)
let solve_counted ?budget ~solves ~pivots lp =
  let pv0 = Obs.domain_counter_value "simplex.pivots" in
  let sol = Presolve.solve ?budget lp in
  Obs.count solves;
  Obs.count ~n:(Obs.domain_counter_value "simplex.pivots" - pv0) pivots;
  sol

let endpoints_ok ~vertex_ok demands =
  List.for_all
    (fun d -> vertex_ok d.Commodity.src && vertex_ok d.Commodity.dst)
    demands

let feasible ?budget ?(vertex_ok = all) ?(edge_ok = all)
    ?(var_budget = default_budget) ~cap g demands =
  let demands = List.filter (fun d -> Num.positive ~eps:Num.flow_eps d.Commodity.amount) demands in
  if demands = [] then Routable Routing.empty
  else if not (endpoints_ok ~vertex_ok demands) then Unroutable
  else begin
    let live = live_edges ~vertex_ok ~edge_ok ~cap g in
    let nh = List.length demands in
    if 2 * nh * List.length live > var_budget then Too_big
    else begin
      let lp, flows, conservation =
        build ~vertex_ok ~cap g ~ncommodities:nh ~live
      in
      let darr = Array.of_list demands in
      conservation ~extra:(fun _ _ -> []) ~rhs:(fun h v -> supply darr.(h) v);
      let sol =
        solve_counted ?budget ~solves:"mcf.feasible_solves"
          ~pivots:"mcf.feasible_pivots" lp
      in
      match sol.Lp.status with
      | Lp.Optimal -> Routable (routing flows demands sol.Lp.values)
      | Lp.Infeasible -> Unroutable
      | Lp.Iteration_limit ->
        Obs.count "lp.iteration_limit_hits";
        Undecided
      | Lp.Unbounded -> Undecided
    end
  end

let max_scale ?budget ?(vertex_ok = all) ?(edge_ok = all)
    ?(var_budget = default_budget) ~cap ~tmax g param =
  let demands = List.map fst param in
  if not (endpoints_ok ~vertex_ok demands) then `Max 0.0
  else begin
    let live = live_edges ~vertex_ok ~edge_ok ~cap g in
    let nh = List.length param in
    if 2 * nh * List.length live > var_budget then `Too_big
    else begin
      let lp, _, conservation =
        build ~vertex_ok ~cap g ~ncommodities:nh ~live
      in
      let t =
        if Float.is_finite tmax then Lp.add_var lp ~ub:tmax ~name:"t" ()
        else Lp.add_var lp ~name:"t" ()
      in
      Lp.set_obj lp t (-1.0);
      (* minimize -t = maximize t *)
      let parr = Array.of_list param in
      (* Conservation: out - in = base + slope * t, i.e.
         out - in - slope*t = base. *)
      let extra h v =
        let d, slope = parr.(h) in
        if v = d.Commodity.src then [ (t, -.slope) ]
        else if v = d.Commodity.dst then [ (t, slope) ]
        else []
      in
      conservation ~extra ~rhs:(fun h v -> supply (fst parr.(h)) v);
      let sol =
        solve_counted ?budget ~solves:"mcf.max_scale_solves"
          ~pivots:"mcf.max_scale_pivots" lp
      in
      match sol.Lp.status with
      | Lp.Optimal -> `Max sol.Lp.values.(t)
      | Lp.Infeasible -> `Max 0.0
      | Lp.Unbounded -> `Max tmax
      | Lp.Iteration_limit ->
        Obs.count "lp.iteration_limit_hits";
        `Undecided
    end
  end

let max_total ?budget ?(vertex_ok = all) ?(edge_ok = all)
    ?(var_budget = default_budget) ~cap g demands =
  let demands = List.filter (fun d -> Num.positive ~eps:Num.flow_eps d.Commodity.amount) demands in
  if demands = [] then `Routing Routing.empty
  else begin
    (* Demands with a broken endpoint cannot be served at all; drop them
       from the LP but keep them (unserved) in the returned routing. *)
    let servable, dead =
      List.partition
        (fun d -> vertex_ok d.Commodity.src && vertex_ok d.Commodity.dst)
        demands
    in
    let live = live_edges ~vertex_ok ~edge_ok ~cap g in
    let nh = List.length servable in
    if 2 * nh * List.length live > var_budget then `Too_big
    else begin
      let lp, flows, conservation =
        build ~vertex_ok ~cap g ~ncommodities:nh ~live
      in
      let darr = Array.of_list servable in
      let svars =
        Array.map
          (fun (d : Commodity.t) ->
            Lp.add_var lp ~ub:d.Commodity.amount ~obj:(-1.0) ())
          darr
      in
      (* out - in - (+-1) s_h = 0 at the endpoints. *)
      let extra h v =
        let d = darr.(h) in
        if v = d.Commodity.src then [ (svars.(h), -1.0) ]
        else if v = d.Commodity.dst then [ (svars.(h), 1.0) ]
        else []
      in
      conservation ~extra ~rhs:(fun _ _ -> 0.0);
      let sol =
        solve_counted ?budget ~solves:"mcf.max_total_solves"
          ~pivots:"mcf.max_total_pivots" lp
      in
      match sol.Lp.status with
      | Lp.Optimal ->
        let unserved =
          List.map (fun demand -> { Routing.demand; paths = [] }) dead
        in
        `Routing (routing flows servable sol.Lp.values @ unserved)
      | Lp.Iteration_limit ->
        Obs.count "lp.iteration_limit_hits";
        `Undecided
      | Lp.Infeasible | Lp.Unbounded -> `Undecided
    end
  end
