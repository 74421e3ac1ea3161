module Num = Netrec_util.Num
module Routing = Netrec_flow.Routing
module Oracle = Netrec_flow.Oracle
module Failure = Netrec_disrupt.Failure

type report = {
  vertex_repairs : int;
  edge_repairs : int;
  total_repairs : int;
  repair_cost : float;
  satisfied_fraction : float;
  routing : Routing.t;
}

(* Optional certification hook (wired up by [Netrec_check] via the CLI's
   [--certify]): called on every solution that passes through [assess].
   Kept as a callback so the core library does not depend on the
   checker.  Install before spawning worker domains. *)
let certifier : (Instance.t -> Instance.solution -> unit) option ref =
  ref None

let set_certifier f = certifier := f

let no_duplicates l = List.length (List.sort_uniq compare l) = List.length l

let valid inst s =
  let g = inst.Instance.graph in
  let failure = inst.Instance.failure in
  let routing_ok =
    s.Instance.routing = Routing.empty
    || (Routing.satisfies g ~cap:(Graph.capacity g) s.Instance.routing
       &&
       (* every loaded edge must be available after the repairs *)
       let load = Routing.edge_load g s.Instance.routing in
       let edge_ok = Repairs.edge_ok (Repairs.of_solution inst s) in
       let ok = ref true in
       Array.iteri
         (fun e l ->
           if Num.positive ~eps:Num.flow_eps l && not (edge_ok e) then
             ok := false)
         load;
       !ok)
  in
  no_duplicates s.Instance.repaired_vertices
  && no_duplicates s.Instance.repaired_edges
  && List.for_all (Failure.vertex_broken failure) s.Instance.repaired_vertices
  && List.for_all (Failure.edge_broken failure) s.Instance.repaired_edges
  && routing_ok

let best_routing inst sol =
  let g = inst.Instance.graph in
  let own = sol.Instance.routing in
  (* Validity is a single precondition, computed once: an invalid own
     routing is never used — neither on the complete-routing shortcut nor
     in the tie-break against the oracle below. *)
  let own_usable = own <> Routing.empty && valid inst sol in
  let own_complete =
    own_usable
    && Num.geq ~eps:Num.feas_eps
         (Routing.satisfaction ~demands:inst.Instance.demands own)
         1.0
  in
  if own_complete then own
  else begin
    let rep = Repairs.of_solution inst sol in
    let vertex_ok = Repairs.vertex_ok rep and edge_ok = Repairs.edge_ok rep in
    let computed =
      Oracle.max_satisfiable ~vertex_ok ~edge_ok ~cap:(Graph.capacity g) g
        inst.Instance.demands
    in
    (* Keep whichever routes more (the solution's own partial routing can
       beat the oracle's greedy fallback). *)
    if own_usable && Routing.total_routed own > Routing.total_routed computed
    then own
    else computed
  end

let assess inst sol =
  (match !certifier with Some f -> f inst sol | None -> ());
  let routing = best_routing inst sol in
  { vertex_repairs = Instance.vertex_repairs sol;
    edge_repairs = Instance.edge_repairs sol;
    total_repairs = Instance.total_repairs sol;
    repair_cost = Instance.repair_cost inst sol;
    satisfied_fraction = Routing.satisfaction ~demands:inst.Instance.demands routing;
    routing }

let satisfied_fraction inst sol = (assess inst sol).satisfied_fraction
