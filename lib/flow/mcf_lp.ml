module Lp = Netrec_lp.Lp
module Presolve = Netrec_lp.Presolve
module Num = Netrec_util.Num
module Obs = Netrec_obs.Obs

type verdict =
  | Routable of Routing.t
  | Unroutable
  | Too_big
  | Undecided

let all _ = true
let default_budget = 6000

(* Shared LP skeleton: flow variables f.(h).(e) = (forward, backward) for
   every commodity [h] and live edge [e], capacity rows, and conservation
   rows parameterized by the per-vertex balance terms of each commodity.
   Flow variables are the first [2 * ncommodities * nlive] LP variables,
   laid out h-major in live-edge order, so their indices are arithmetic:
   no per-edge hash lookups anywhere in the build or the extraction. *)

type skeleton = {
  lp : Lp.problem;
  live : Graph.edge_id list;
  slot : int array;  (* edge id -> dense live index, -1 when dead *)
  nlive : int;
}

let fwd skel h e = 2 * ((h * skel.nlive) + skel.slot.(e))
let bwd skel h e = fwd skel h e + 1

let live_edges ~vertex_ok ~edge_ok ~cap g =
  Graph.fold_edges
    (fun e acc ->
      if edge_ok e.Graph.id && vertex_ok e.Graph.u && vertex_ok e.Graph.v
         && Num.positive ~eps:Num.cap_eps (cap e.Graph.id)
      then e.Graph.id :: acc
      else acc)
    g []
  |> List.rev

(* [balance h v] returns the list of extra objective-side terms (vars with
   coefficients) and the constant for commodity [h]'s conservation row at
   vertex [v]:  outflow - inflow + (terms) = constant. *)
let build ~vertex_ok ~cap g ~ncommodities ~live =
  let lp = Lp.create () in
  let nlive = List.length live in
  let slot = Array.make (Graph.ne g) (-1) in
  List.iteri (fun i e -> slot.(e) <- i) live;
  let skel = { lp; live; slot; nlive } in
  for _h = 0 to ncommodities - 1 do
    List.iter
      (fun _e ->
        ignore (Lp.add_var lp ());
        (* forward *)
        ignore (Lp.add_var lp ())
        (* backward *))
      live
  done;
  (* Capacity rows: sum over commodities of both directions <= cap. *)
  List.iter
    (fun e ->
      let terms = ref [] in
      for h = 0 to ncommodities - 1 do
        terms := (fwd skel h e, 1.0) :: (bwd skel h e, 1.0) :: !terms
      done;
      Lp.add_constraint lp !terms Lp.Le (cap e))
    live;
  (* Conservation rows are added by the caller via [conservation]. *)
  let conservation ~extra_terms ~rhs h =
    List.iter
      (fun v ->
        if vertex_ok v then begin
          let terms = ref (extra_terms h v) in
          List.iter
            (fun (_, e) ->
              if slot.(e) >= 0 then begin
                let u, _ = Graph.endpoints g e in
                if u = v then
                  terms :=
                    (fwd skel h e, 1.0) :: (bwd skel h e, -1.0) :: !terms
                else
                  terms :=
                    (fwd skel h e, -1.0) :: (bwd skel h e, 1.0) :: !terms
              end)
            (Graph.incident g v);
          Lp.add_constraint lp !terms Lp.Eq (rhs h v)
        end)
      (Graph.vertices g)
  in
  (skel, conservation)

(* Extract a routing from the per-commodity edge flows of a solved LP. *)
let routing_of_solution g skel demands values =
  let m = Graph.ne g in
  List.mapi
    (fun h (demand : Commodity.t) ->
      let edge_flow = Array.make m 0.0 in
      List.iter
        (fun e ->
          edge_flow.(e) <- values.(fwd skel h e) -. values.(bwd skel h e))
        skel.live;
      let paths =
        Maxflow.decompose g ~source:demand.Commodity.src
          ~sink:demand.Commodity.dst
          { Maxflow.value = 0.0; edge_flow }
      in
      { Routing.demand; paths })
    demands

let endpoints_ok ~vertex_ok demands =
  List.for_all
    (fun d -> vertex_ok d.Commodity.src && vertex_ok d.Commodity.dst)
    demands

let feasible ?budget ?presolve ?(vertex_ok = all) ?(edge_ok = all)
    ?(var_budget = default_budget) ~cap g demands =
  let demands = List.filter (fun d -> Num.positive ~eps:Num.flow_eps d.Commodity.amount) demands in
  if demands = [] then Routable Routing.empty
  else if not (endpoints_ok ~vertex_ok demands) then Unroutable
  else begin
    let live = live_edges ~vertex_ok ~edge_ok ~cap g in
    let nh = List.length demands in
    if 2 * nh * List.length live > var_budget then Too_big
    else begin
      let skel, conservation =
        build ~vertex_ok ~cap g ~ncommodities:nh ~live
      in
      let darr = Array.of_list demands in
      let rhs h v =
        let d = darr.(h) in
        if v = d.Commodity.src then d.Commodity.amount
        else if v = d.Commodity.dst then -.d.Commodity.amount
        else 0.0
      in
      for h = 0 to nh - 1 do
        conservation ~extra_terms:(fun _ _ -> []) ~rhs h
      done;
      let __pv0 = Obs.domain_counter_value "simplex.pivots" in
      let sol = Presolve.solve ?budget ?enabled:presolve skel.lp in
      Obs.count "mcf.feasible_solves";
      Obs.count ~n:(Obs.domain_counter_value "simplex.pivots" - __pv0)
        "mcf.feasible_pivots";
      match sol.Lp.status with
      | Lp.Optimal ->
        Routable (routing_of_solution g skel demands sol.Lp.values)
      | Lp.Infeasible -> Unroutable
      | Lp.Iteration_limit ->
        Obs.count "lp.iteration_limit_hits";
        Undecided
      | Lp.Unbounded -> Undecided
    end
  end

let max_scale ?budget ?presolve ?(vertex_ok = all) ?(edge_ok = all)
    ?(var_budget = default_budget) ~cap ~tmax g param =
  let demands = List.map fst param in
  if not (endpoints_ok ~vertex_ok demands) then `Max 0.0
  else begin
    let live = live_edges ~vertex_ok ~edge_ok ~cap g in
    let nh = List.length param in
    if 2 * nh * List.length live > var_budget then `Too_big
    else begin
      let skel, conservation =
        build ~vertex_ok ~cap g ~ncommodities:nh ~live
      in
      let t =
        if Float.is_finite tmax then Lp.add_var skel.lp ~ub:tmax ~name:"t" ()
        else Lp.add_var skel.lp ~name:"t" ()
      in
      Lp.set_obj skel.lp t (-1.0);
      (* minimize -t = maximize t *)
      let parr = Array.of_list param in
      (* Conservation: out - in = base + slope * t, i.e.
         out - in - slope*t = base. *)
      let extra_terms h v =
        let d, slope = parr.(h) in
        if v = d.Commodity.src then [ (t, -.slope) ]
        else if v = d.Commodity.dst then [ (t, slope) ]
        else []
      in
      let rhs h v =
        let d, _ = parr.(h) in
        if v = d.Commodity.src then d.Commodity.amount
        else if v = d.Commodity.dst then -.d.Commodity.amount
        else 0.0
      in
      for h = 0 to nh - 1 do
        conservation ~extra_terms ~rhs h
      done;
      let __pv0 = Obs.domain_counter_value "simplex.pivots" in
      let sol = Presolve.solve ?budget ?enabled:presolve skel.lp in
      Obs.count "mcf.max_scale_solves";
      Obs.count ~n:(Obs.domain_counter_value "simplex.pivots" - __pv0)
        "mcf.max_scale_pivots";
      match sol.Lp.status with
      | Lp.Optimal -> `Max sol.Lp.values.(t)
      | Lp.Infeasible -> `Max 0.0
      | Lp.Unbounded -> `Max tmax
      | Lp.Iteration_limit ->
        Obs.count "lp.iteration_limit_hits";
        `Undecided
    end
  end

let max_total ?budget ?presolve ?(vertex_ok = all) ?(edge_ok = all)
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
      let skel, conservation =
        build ~vertex_ok ~cap g ~ncommodities:nh ~live
      in
      let darr = Array.of_list servable in
      let svars =
        Array.map
          (fun (d : Commodity.t) ->
            Lp.add_var skel.lp ~ub:d.Commodity.amount ~obj:(-1.0) ())
          darr
      in
      (* out - in - (+-1) s_h = 0 at the endpoints. *)
      let extra_terms h v =
        let d = darr.(h) in
        if v = d.Commodity.src then [ (svars.(h), -1.0) ]
        else if v = d.Commodity.dst then [ (svars.(h), 1.0) ]
        else []
      in
      let rhs _ _ = 0.0 in
      for h = 0 to nh - 1 do
        conservation ~extra_terms ~rhs h
      done;
      let __pv0 = Obs.domain_counter_value "simplex.pivots" in
      let sol = Presolve.solve ?budget ?enabled:presolve skel.lp in
      Obs.count "mcf.max_total_solves";
      Obs.count ~n:(Obs.domain_counter_value "simplex.pivots" - __pv0)
        "mcf.max_total_pivots";
      match sol.Lp.status with
      | Lp.Optimal ->
        let routing = routing_of_solution g skel servable sol.Lp.values in
        let unserved =
          List.map (fun demand -> { Routing.demand; paths = [] }) dead
        in
        `Routing (routing @ unserved)
      | Lp.Iteration_limit ->
        Obs.count "lp.iteration_limit_hits";
        `Undecided
      | Lp.Infeasible | Lp.Unbounded -> `Undecided
    end
  end
