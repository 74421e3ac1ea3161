module Num = Netrec_util.Num
module Routing = Netrec_flow.Routing
module Oracle = Netrec_flow.Oracle

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

let best_routing inst sol =
  let g = inst.Instance.graph in
  let own = sol.Instance.routing in
  (* Validity is a single precondition, computed once: an invalid own
     routing is never used — neither on the complete-routing shortcut nor
     in the tie-break against the oracle below. *)
  let own_usable = own <> Routing.empty && Instance.valid inst sol in
  let own_complete =
    own_usable
    && Num.geq ~eps:Num.feas_eps
         (Routing.satisfaction ~demands:inst.Instance.demands own)
         1.0
  in
  if own_complete then own
  else begin
    let vertex_ok = Instance.repaired_vertex_ok inst sol in
    let edge_ok = Instance.repaired_edge_ok inst sol in
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
