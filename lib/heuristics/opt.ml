module Num = Netrec_util.Num
module Lp = Netrec_lp.Lp
module Milp = Netrec_lp.Milp
module Obs = Netrec_obs.Obs
module Commodity = Netrec_flow.Commodity
module Mcf_lp = Netrec_flow.Mcf_lp
module Failure = Netrec_disrupt.Failure
module Budget = Netrec_resilience.Budget
open Netrec_core

type result = {
  solution : Instance.solution;
  objective : float;
  bound : float;
  proved : bool;
  nodes : int;
  wall_seconds : float;
  limited : Budget.reason option;
}

(* Variable layout: vertex binaries (broken vertices, ascending id), edge
   binaries (broken edges, ascending id), then the flow block over every
   edge.  Deltas are dense int arrays with -1 for working elements, so
   lookups never touch a hashtable and the binary list is
   deterministic. *)
type model = {
  lp : Lp.problem;
  delta_v : int array;  (* vertex -> binary var, -1 when not broken *)
  delta_e : int array;  (* edge id -> binary var, -1 when not broken *)
  flows : Mcf_lp.block;
}

(* Build the MinR MILP.  Binaries exist only for broken elements; the
   capacity row of a broken edge is gated by its binary, and every edge
   incident to a broken vertex is additionally gated by the vertex binary
   (disaggregated form of (1c), same integer solutions, tighter LP). *)
let build inst =
  let g = inst.Instance.graph in
  let failure = inst.Instance.failure in
  let demands = Array.of_list inst.Instance.demands in
  let nh = Array.length demands in
  let ne = Graph.ne g in
  let lp = Lp.create () in
  let delta_v = Array.make (Graph.nv g) (-1) in
  let delta_e = Array.make ne (-1) in
  List.iter
    (fun v ->
      if Failure.vertex_broken failure v then
        delta_v.(v) <-
          Lp.add_var lp ~ub:1.0 ~obj:inst.Instance.vertex_cost.(v) ())
    (Graph.vertices g);
  Graph.fold_edges
    (fun e () ->
      if Failure.edge_broken failure e.Graph.id then
        delta_e.(e.Graph.id) <-
          Lp.add_var lp ~ub:1.0 ~obj:inst.Instance.edge_cost.(e.Graph.id) ())
    g ();
  let flows = Mcf_lp.block lp g ~ncommodities:nh (List.init ne Fun.id) in
  (* Capacity / edge gating:  sum_h (f + f') <= c_e * delta_e. *)
  Graph.fold_edges
    (fun e () ->
      let id = e.Graph.id in
      let terms = Mcf_lp.load flows id in
      (if delta_e.(id) >= 0 then
         Lp.add_constraint lp
           ((delta_e.(id), -.e.Graph.capacity) :: terms)
           Lp.Le 0.0
       else Lp.add_constraint lp terms Lp.Le e.Graph.capacity);
      (* Vertex gating for broken endpoints. *)
      List.iter
        (fun v ->
          if delta_v.(v) >= 0 then
            Lp.add_constraint lp
              ((delta_v.(v), -.e.Graph.capacity) :: terms)
              Lp.Le 0.0)
        [ e.Graph.u; e.Graph.v ])
    g ();
  (* Also gate edge repair by endpoint repair (an edge cannot be used
     unless its endpoints are): delta_e <= delta_v. *)
  Graph.fold_edges
    (fun e () ->
      if delta_e.(e.Graph.id) >= 0 then
        List.iter
          (fun v ->
            if delta_v.(v) >= 0 then
              Lp.add_constraint lp
                [ (delta_e.(e.Graph.id), 1.0); (delta_v.(v), -1.0) ]
                Lp.Le 0.0)
          [ e.Graph.u; e.Graph.v ])
    g ();
  (* Flow conservation per commodity and vertex. *)
  Array.iteri
    (fun h d ->
      List.iter
        (fun v ->
          Lp.add_constraint lp (Mcf_lp.net_outflow flows h v) Lp.Eq
            (Mcf_lp.supply d v))
        (Graph.vertices g))
    demands;
  { lp; delta_v; delta_e; flows }

(* Binaries in a fixed order — vertices ascending, then edges ascending —
   so branching (and hence the node sequence) is deterministic. *)
let binaries model =
  let acc = ref [] in
  for e = Array.length model.delta_e - 1 downto 0 do
    if model.delta_e.(e) >= 0 then acc := model.delta_e.(e) :: !acc
  done;
  for v = Array.length model.delta_v - 1 downto 0 do
    if model.delta_v.(v) >= 0 then acc := model.delta_v.(v) :: !acc
  done;
  !acc

let solution_of_values inst model values =
  let repaired_vertices =
    List.filter
      (fun v -> model.delta_v.(v) >= 0 && values.(model.delta_v.(v)) > 0.5)
      (Graph.vertices inst.Instance.graph)
  in
  let repaired_edges =
    List.filter
      (fun e -> model.delta_e.(e) >= 0 && values.(model.delta_e.(e)) > 0.5)
      (List.init (Array.length model.delta_e) Fun.id)
  in
  let routing = Mcf_lp.routing model.flows inst.Instance.demands values in
  { Instance.repaired_vertices; repaired_edges; routing }

(* Steiner-forest-style cut separation for the MinR relaxation.  At a
   fractional point, every edge gets a "gate" value — the least
   fractional value among the broken binaries that gate it (its own
   repair variable and those of broken endpoints; 1 when fully working).
   For each demand we take a minimum s-t cut under gate-scaled
   capacities; when the separated demands' total amount exceeds the
   cut's fractional capacity, the cut proves the point infeasible and we
   emit two valid rows over the broken crossing edges, writing [gamma_e]
   for edge [e]'s least-gate binary (any integer-feasible point has
   usable capacity on [e] at most [c_e * gamma_e]):

   - connectivity: [sum c_e * gamma_e >= separated - working_cap] — the
     repaired crossing capacity must carry what the working edges can't;
   - cover: [sum gamma_e >= k] with [k] the least number of largest
     broken crossing capacities that close the deficit — fewer repaired
     crossing edges cannot carry the flow whatever their identity.

   Both are valid for every integer-feasible point of the root box, so
   {!Milp} may pool them globally. *)
let make_separator inst model =
  let g = inst.Instance.graph in
  let demands = Array.of_list inst.Instance.demands in
  let ne = Graph.ne g in
  fun (x : float array) ->
    let gate = Array.make ne 1.0 in
    let gate_var = Array.make ne (-1) in
    Graph.fold_edges
      (fun e () ->
        let id = e.Graph.id in
        let consider var =
          if var >= 0 && x.(var) < gate.(id) then begin
            gate.(id) <- x.(var);
            gate_var.(id) <- var
          end
        in
        consider model.delta_e.(id);
        consider model.delta_v.(e.Graph.u);
        consider model.delta_v.(e.Graph.v))
      g ();
    let cap id = Graph.capacity g id *. Float.max 0.0 gate.(id) in
    let cuts = ref [] in
    Array.iter
      (fun d ->
        let source = d.Commodity.src and sink = d.Commodity.dst in
        if source <> sink then begin
          let side, _ = Maxflow.min_cut ~cap g ~source ~sink in
          let in_s = Array.make (Graph.nv g) false in
          List.iter (fun v -> in_s.(v) <- true) side;
          if in_s.(source) && not in_s.(sink) then begin
            (* Full crossing edge set by endpoint sides (the min-cut edge
               list omits zero-capacity crossings). *)
            let crossing =
              Graph.fold_edges
                (fun e acc ->
                  if in_s.(e.Graph.u) <> in_s.(e.Graph.v) then
                    e.Graph.id :: acc
                  else acc)
                g []
            in
            (* Steiner-forest flavor: charge the cut with every demand it
               separates, not just the one that produced it. *)
            let sep_amount =
              Array.fold_left
                (fun acc d ->
                  if in_s.(d.Commodity.src) <> in_s.(d.Commodity.dst) then
                    acc +. d.Commodity.amount
                  else acc)
                0.0 demands
            in
            (* The flow relaxation already implies every capacity-weighted
               cut at fractional points (max-flow/min-cut), so the
               connectivity row below is only violated by numerics; the
               cardinality cover row, whose rhs [k] is integer-rounded, is
               the one that actually separates.  Emit both and let the
               caller's violation filter decide. *)
            begin
              let broken, working =
                List.partition (fun id -> gate_var.(id) >= 0) crossing
              in
              let working_cap =
                List.fold_left
                  (fun acc id -> acc +. Graph.capacity g id)
                  0.0 working
              in
              let need = sep_amount -. working_cap in
              if need > Num.feas_eps && broken <> [] then begin
                cuts :=
                  ( List.map
                      (fun id -> (gate_var.(id), Graph.capacity g id))
                      broken,
                    Lp.Ge, need )
                  :: !cuts;
                let caps =
                  List.sort
                    (fun a b -> compare b a)
                    (List.map (Graph.capacity g) broken)
                in
                let total_broken = List.fold_left ( +. ) 0.0 caps in
                if working_cap +. total_broken >= sep_amount -. Num.feas_eps
                then begin
                  let k = ref 0 in
                  let got = ref working_cap in
                  List.iter
                    (fun c ->
                      if !got < sep_amount -. Num.feas_eps then begin
                        got := !got +. c;
                        incr k
                      end)
                    caps;
                  if !k >= 1 then
                    cuts :=
                      ( List.map (fun id -> (gate_var.(id), 1.0)) broken,
                        Lp.Ge, float_of_int !k )
                      :: !cuts
                end
              end
            end
          end
        end)
      demands;
    !cuts

let integral_costs inst =
  let integral x = Float.is_integer x in
  Array.for_all integral inst.Instance.vertex_cost
  && Array.for_all integral inst.Instance.edge_cost

let solve_body ~budget ~node_limit ~var_budget ~incumbent ~warm:warm_nodes
    ~node_certifier ~presolve ~cuts ~pricing inst =
  let g = inst.Instance.graph in
  let nh = List.length inst.Instance.demands in
  let warm =
    match incumbent with
    | Some s -> s
    | None ->
      Obs.span "opt.warm_start" @@ fun () ->
      let isp, _ = Isp.solve ~budget inst in
      Postpass.prune inst isp
  in
  let warm_cost = Instance.repair_cost inst warm in
  let finish solution objective bound proved nodes limited =
    { solution;
      objective;
      bound = Float.min bound objective;
      proved;
      nodes;
      wall_seconds = 0.0;
      limited }
  in
  if 2 * nh * Graph.ne g > var_budget then
    (* Documented OPT-proxy path for oversize instances; repair costs are
       nonnegative, so 0 is the (trivial) bound reported. *)
    finish warm warm_cost 0.0 false 0
      (Some (Budget.Size { size = 2 * nh * Graph.ne g; cap = var_budget }))
  else begin
    let model = Obs.span "opt.model_build" (fun () -> build inst) in
    let binary = binaries model in
    let dummy_incumbent = (Array.make (Lp.nvars model.lp) 0.0, warm_cost) in
    let separator = make_separator inst model in
    let r =
      Obs.span "opt.branch_and_bound" @@ fun () ->
      Milp.solve ~budget ~node_limit ~integral_objective:(integral_costs inst)
        ~incumbent:dummy_incumbent ~warm:warm_nodes ?node_certifier ?presolve
        ?cuts ?pricing ~separator ~binary model.lp
    in
    match r.Milp.status with
    | `Optimal | `Feasible ->
      if not (Num.geq ~eps:Num.feas_eps r.Milp.objective warm_cost) then
        finish
          (solution_of_values inst model r.Milp.values)
          r.Milp.objective r.Milp.bound r.Milp.proved r.Milp.nodes
          r.Milp.limited
      else
        finish warm warm_cost r.Milp.bound r.Milp.proved r.Milp.nodes
          r.Milp.limited
    | `Infeasible | `Unknown ->
      (* The MILP can only be infeasible when the demand exceeds even the
         fully repaired network; fall back to the warm start. *)
      finish warm warm_cost r.Milp.bound false r.Milp.nodes r.Milp.limited
  end

let solve ?(budget = Budget.unlimited) ?(node_limit = 3000)
    ?(var_budget = 6000) ?incumbent ?(warm = true) ?node_certifier ?presolve
    ?cuts ?pricing inst =
  let r, wall =
    Obs.timed "opt.solve" (fun () ->
        solve_body ~budget ~node_limit ~var_budget ~incumbent ~warm
          ~node_certifier ~presolve ~cuts ~pricing inst)
  in
  { r with wall_seconds = wall }
