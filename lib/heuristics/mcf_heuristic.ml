module Num = Netrec_util.Num
module Lp = Netrec_lp.Lp
module Obs = Netrec_obs.Obs
module Mcf_lp = Netrec_flow.Mcf_lp
module Failure = Netrec_disrupt.Failure
open Netrec_core

type result = {
  support : Instance.solution;
  mcb : Instance.solution;
  mcw : Instance.solution;
  lp_objective : float;
}

(* System (8): the flow block covers every edge (broken edges are usable
   — using them is what costs). *)
let build_flow_lp inst =
  let g = inst.Instance.graph in
  let broken = Failure.edge_broken inst.Instance.failure in
  let lp = Lp.create () in
  let flows =
    Mcf_lp.block lp g
      ~ncommodities:(List.length inst.Instance.demands)
      ~cost:(fun e -> if broken e then inst.Instance.edge_cost.(e) else 0.0)
      (List.init (Graph.ne g) Fun.id)
  in
  Graph.fold_edges
    (fun e () ->
      Lp.add_constraint lp (Mcf_lp.load flows e.Graph.id) Lp.Le
        e.Graph.capacity)
    g ();
  List.iteri
    (fun h d ->
      List.iter
        (fun v ->
          Lp.add_constraint lp (Mcf_lp.net_outflow flows h v) Lp.Eq
            (Mcf_lp.supply d v))
        (Graph.vertices g))
    inst.Instance.demands;
  (lp, flows)

(* Repairs implied by a flow: every broken edge carrying flow, every
   broken vertex some loaded edge touches. *)
let support_of_flow inst flows values =
  let rep = Repairs.create inst in
  for e = 0 to Graph.ne inst.Instance.graph - 1 do
    let load =
      List.fold_left (fun acc (x, _) -> acc +. values.(x)) 0.0
        (Mcf_lp.load flows e)
    in
    if Num.positive ~eps:Num.feas_eps load then
      ignore (Repairs.repair_path rep [ e ] : bool)
  done;
  Repairs.solution rep

let var_budget = 8000

let solve ?budget inst =
  let g = inst.Instance.graph in
  let nh = List.length inst.Instance.demands in
  let exhausted =
    match budget with
    | Some b -> not (Netrec_resilience.Budget.ok b)
    | None -> false
  in
  if exhausted || 2 * nh * Graph.ne g > var_budget then None
  else begin
    let lp, flows = build_flow_lp inst in
    let sol = Lp.solve ?budget lp in
    match sol.Lp.status with
    | Lp.Iteration_limit ->
      Obs.count "lp.iteration_limit_hits";
      None
    | Lp.Infeasible | Lp.Unbounded -> None
    | Lp.Optimal ->
      let lp_objective = sol.Lp.objective in
      let support = support_of_flow inst flows sol.Lp.values in
      let mcb = Postpass.prune inst support in
      (* ---- MCW proxy: same optimal cost, maximal broken-edge spread.
         u_e in [0, tau] counts (to first order) the broken edges that
         carry at least tau units, so maximizing sum u_e pushes flow onto
         as many broken edges as the optimal cost allows.  [Lp.solve]
         leaves its problem as it was, so the spread LP starts from a
         copy of the solved one. ---- *)
      let tau = 1e-2 in
      let lp2 = Lp.copy lp in
      let broken = Failure.edge_broken inst.Instance.failure in
      (* Freeze the original objective at its optimum. *)
      let cost_terms = ref [] in
      Graph.fold_edges
        (fun e () ->
          if broken e.Graph.id then begin
            let k = inst.Instance.edge_cost.(e.Graph.id) in
            List.iter
              (fun (x, _) -> cost_terms := (x, k) :: !cost_terms)
              (Mcf_lp.load flows e.Graph.id)
          end)
        g ();
      Lp.add_constraint lp2 !cost_terms Lp.Le (lp_objective +. Num.feas_eps);
      (* Zero out the old objective and install the spread objective. *)
      for v = 0 to Lp.nvars lp2 - 1 do
        Lp.set_obj lp2 v 0.0
      done;
      Graph.fold_edges
        (fun e () ->
          if broken e.Graph.id then begin
            let u = Lp.add_var lp2 ~ub:tau ~obj:(-1.0) () in
            (* u_e <= total flow on e *)
            let flow = Mcf_lp.load flows e.Graph.id in
            Lp.add_constraint lp2
              ((u, 1.0) :: List.map (fun (x, _) -> (x, -1.0)) flow)
              Lp.Le 0.0
          end)
        g ();
      let sol2 = Lp.solve ?budget lp2 in
      let mcw =
        match sol2.Lp.status with
        | Lp.Optimal -> support_of_flow inst flows sol2.Lp.values
        | Lp.Iteration_limit ->
          Obs.count "lp.iteration_limit_hits";
          support
        | Lp.Infeasible | Lp.Unbounded -> support
      in
      Some { support; mcb; mcw; lp_objective }
  end
