module Num = Netrec_util.Num
module Rng = Netrec_util.Rng
module Obs = Netrec_obs.Obs
module Commodity = Netrec_flow.Commodity
module Routing = Netrec_flow.Routing
module Failure = Netrec_disrupt.Failure
module Models = Netrec_disrupt.Models
module Instance = Netrec_core.Instance
module Evaluate = Netrec_core.Evaluate
module Isp = Netrec_core.Isp
module Lp = Netrec_lp.Lp
module H = Netrec_heuristics
module Pool = Netrec_parallel.Pool

(* ---- solution certificates ---- *)

type element = Vertex of Graph.vertex | Edge of Graph.edge_id

let element_to_string = function
  | Vertex v -> Printf.sprintf "vertex %d" v
  | Edge e -> Printf.sprintf "edge %d" e

type violation =
  | Repair_not_broken of element
  | Duplicate_repair of element
  | Out_of_range of element
  | Unknown_demand of { index : int; src : int; dst : int }
  | Bad_path of { demand : int; path : int; reason : string }
  | Negative_flow of { demand : int; path : int; flow : float }
  | Unavailable of { demand : int; path : int; element : element }
  | Overfull_edge of { edge : Graph.edge_id; load : float; capacity : float }
  | Overrouted of { demand : int; routed : float; amount : float }
  | Cost_mismatch of { reported : float; recomputed : float }

let violation_to_string = function
  | Repair_not_broken el ->
    Printf.sprintf "repairs %s which was never broken" (element_to_string el)
  | Duplicate_repair el ->
    Printf.sprintf "repairs %s more than once" (element_to_string el)
  | Out_of_range el ->
    Printf.sprintf "references %s which is outside the graph"
      (element_to_string el)
  | Unknown_demand { index; src; dst } ->
    Printf.sprintf "assignment %d routes demand %d->%d which the instance \
                    does not contain"
      index src dst
  | Bad_path { demand; path; reason } ->
    Printf.sprintf "demand %d path %d is broken: %s" demand path reason
  | Negative_flow { demand; path; flow } ->
    Printf.sprintf "demand %d path %d carries negative flow %g" demand path
      flow
  | Unavailable { demand; path; element } ->
    Printf.sprintf
      "demand %d path %d crosses %s, which is broken and not repaired"
      demand path (element_to_string element)
  | Overfull_edge { edge; load; capacity } ->
    Printf.sprintf "edge %d carries %g over capacity %g" edge load capacity
  | Overrouted { demand; routed; amount } ->
    Printf.sprintf "demand %d routes %g of a %g-unit demand" demand routed
      amount
  | Cost_mismatch { reported; recomputed } ->
    Printf.sprintf "reported repair cost %g but the repairs cost %g" reported
      recomputed

type certificate = {
  violations : violation list;
  recomputed_cost : float;
  own_satisfaction : float;
  checked_paths : int;
}

let ok c = c.violations = []

let certificate_to_string c =
  if ok c then
    Printf.sprintf "certificate OK (cost %g, %d routed paths, own routing \
                    carries %.1f%%)"
      c.recomputed_cost c.checked_paths (100.0 *. c.own_satisfaction)
  else
    String.concat "\n"
      (Printf.sprintf "certificate FAILED: %d violation(s)"
         (List.length c.violations)
       :: List.map (fun v -> "  - " ^ violation_to_string v) c.violations)

let certify ?(eps = Num.feas_eps) ?reported_cost inst sol =
  let g = inst.Instance.graph in
  let nv = Graph.nv g and ne = Graph.ne g in
  let failure = inst.Instance.failure in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Repairs: in range, no duplicates, subset of the broken sets. *)
  let check_repairs mk in_range broken ids =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun id ->
        if not (in_range id) then add (Out_of_range (mk id))
        else begin
          if Hashtbl.mem seen id then add (Duplicate_repair (mk id))
          else Hashtbl.replace seen id ();
          if not (broken id) then add (Repair_not_broken (mk id))
        end)
      ids
  in
  check_repairs
    (fun v -> Vertex v)
    (fun v -> v >= 0 && v < nv)
    (Failure.vertex_broken failure)
    sol.Instance.repaired_vertices;
  check_repairs
    (fun e -> Edge e)
    (fun e -> e >= 0 && e < ne)
    (Failure.edge_broken failure)
    sol.Instance.repaired_edges;
  (* Availability after the (in-range part of the) repairs. *)
  let repaired_v = Array.make nv false in
  let repaired_e = Array.make ne false in
  List.iter
    (fun v -> if v >= 0 && v < nv then repaired_v.(v) <- true)
    sol.Instance.repaired_vertices;
  List.iter
    (fun e -> if e >= 0 && e < ne then repaired_e.(e) <- true)
    sol.Instance.repaired_edges;
  let vertex_ok v = (not (Failure.vertex_broken failure v)) || repaired_v.(v) in
  let edge_self_ok e = (not (Failure.edge_broken failure e)) || repaired_e.(e) in
  (* Routing: paths chain between their demand's endpoints, loaded paths
     cross only available elements, per-edge load respects capacity,
     per-demand volume respects the demand. *)
  let load = Array.make ne 0.0 in
  let pair_key s t = if s < t then (s, t) else (t, s) in
  let wanted = Hashtbl.create 8 in
  List.iter
    (fun d ->
      let k = pair_key d.Commodity.src d.Commodity.dst in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt wanted k) in
      Hashtbl.replace wanted k (prev +. d.Commodity.amount))
    inst.Instance.demands;
  let routed = Hashtbl.create 8 in
  let checked_paths = ref 0 in
  List.iteri
    (fun di a ->
      let d = a.Routing.demand in
      let key = pair_key d.Commodity.src d.Commodity.dst in
      if not (Hashtbl.mem wanted key) then
        add
          (Unknown_demand
             { index = di; src = d.Commodity.src; dst = d.Commodity.dst });
      List.iteri
        (fun pi (p, x) ->
          incr checked_paths;
          if not (Num.geq ~eps x 0.0) then
            add (Negative_flow { demand = di; path = pi; flow = x });
          let in_range = List.for_all (fun e -> e >= 0 && e < ne) p in
          if not in_range then begin
            List.iter
              (fun e -> if e < 0 || e >= ne then add (Out_of_range (Edge e)))
              p;
            add
              (Bad_path
                 { demand = di; path = pi; reason = "edge id out of range" })
          end
          else begin
            let x_pos = Num.positive ~eps:Num.flow_eps x in
            if x_pos then begin
              let prev =
                Option.value ~default:0.0 (Hashtbl.find_opt routed key)
              in
              Hashtbl.replace routed key (prev +. x);
              List.iter (fun e -> load.(e) <- load.(e) +. x) p
            end;
            match Paths.vertices_of g d.Commodity.src p with
            | exception Invalid_argument _ ->
              add
                (Bad_path
                   { demand = di;
                     path = pi;
                     reason = "edges do not chain from the source" })
            | [] | [ _ ] when p = [] ->
              (* Commodity endpoints are distinct, so an empty path cannot
                 join them. *)
              add
                (Bad_path
                   { demand = di; path = pi; reason = "empty edge sequence" })
            | vs ->
              let last = List.nth vs (List.length vs - 1) in
              if last <> d.Commodity.dst then
                add
                  (Bad_path
                     { demand = di;
                       path = pi;
                       reason =
                         Printf.sprintf "ends at vertex %d, not the sink %d"
                           last d.Commodity.dst })
              else if x_pos then begin
                List.iter
                  (fun v ->
                    if not (vertex_ok v) then
                      add
                        (Unavailable
                           { demand = di; path = pi; element = Vertex v }))
                  vs;
                List.iter
                  (fun e ->
                    if not (edge_self_ok e) then
                      add
                        (Unavailable
                           { demand = di; path = pi; element = Edge e }))
                  p
              end
          end)
        a.Routing.paths)
    sol.Instance.routing;
  Array.iteri
    (fun e l ->
      let c = Graph.capacity g e in
      if not (Num.leq ~eps l c) then
        add (Overfull_edge { edge = e; load = l; capacity = c }))
    load;
  Hashtbl.iter
    (fun key r ->
      match Hashtbl.find_opt wanted key with
      | Some w when not (Num.leq ~eps r w) ->
        add (Overrouted { demand = fst key; routed = r; amount = w })
      | _ -> ())
    routed;
  (* Repair cost, recomputed defensively (out-of-range ids are already
     violations above and must not crash the recomputation). *)
  let recomputed_cost =
    List.fold_left
      (fun acc v ->
        if v >= 0 && v < nv then acc +. inst.Instance.vertex_cost.(v) else acc)
      0.0 sol.Instance.repaired_vertices
    +. List.fold_left
         (fun acc e ->
           if e >= 0 && e < ne then acc +. inst.Instance.edge_cost.(e)
           else acc)
         0.0 sol.Instance.repaired_edges
  in
  (match reported_cost with
  | Some reported when not (Num.approx_eq ~eps reported recomputed_cost) ->
    add (Cost_mismatch { reported; recomputed = recomputed_cost })
  | _ -> ());
  let violations = List.rev !violations in
  Obs.count "check.certified";
  if violations <> [] then Obs.count ~n:(List.length violations) "check.violations";
  { violations;
    recomputed_cost;
    own_satisfaction =
      Routing.satisfaction ~demands:inst.Instance.demands sol.Instance.routing;
    checked_paths = !checked_paths }

let install_certifier () =
  Evaluate.set_certifier
    (Some
       (fun inst sol ->
         let c = certify inst sol in
         if not (ok c) then
           List.iter
             (fun v -> Printf.eprintf "check: %s\n%!" (violation_to_string v))
             c.violations))

(* ---- LP certificates ---- *)

type lp_violation =
  | Row_violated of { index : int; lhs : float; rel : Lp.relation; rhs : float }
  | Bound_violated of { var : Lp.var; value : float; lb : float; ub : float }
  | Objective_mismatch of { reported : float; recomputed : float }
  | Bound_direction of { bound : float; objective : float }

let lp_violation_to_string = function
  | Row_violated { index; lhs; rel; rhs } ->
    let rel = match rel with Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "=" in
    Printf.sprintf "constraint %d violated: %g %s %g does not hold" index lhs
      rel rhs
  | Bound_violated { var; value; lb; ub } ->
    Printf.sprintf "variable %d = %g outside its bounds [%g, %g]" var value lb
      ub
  | Objective_mismatch { reported; recomputed } ->
    Printf.sprintf "reported objective %g but the values cost %g" reported
      recomputed
  | Bound_direction { bound; objective } ->
    Printf.sprintf "claimed bound %g is on the wrong side of objective %g"
      bound objective

type lp_certificate = {
  lp_violations : lp_violation list;
  recomputed_objective : float;
}

let lp_ok c = c.lp_violations = []

let lp_certificate ?(eps = Num.feas_eps) ?bound p (sol : Lp.solution) =
  match sol.Lp.status with
  | Lp.Infeasible | Lp.Unbounded | Lp.Iteration_limit ->
    { lp_violations = []; recomputed_objective = 0.0 }
  | Lp.Optimal ->
    let x = sol.Lp.values in
    let violations = ref [] in
    let add v = violations := v :: !violations in
    List.iteri
      (fun index (terms, rel, rhs) ->
        let lhs =
          List.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0.0 terms
        in
        let holds =
          match rel with
          | Lp.Le -> Num.leq ~eps lhs rhs
          | Lp.Ge -> Num.geq ~eps lhs rhs
          | Lp.Eq -> Num.approx_eq ~eps lhs rhs
        in
        if not holds then add (Row_violated { index; lhs; rel; rhs }))
      (Lp.constraints p);
    let recomputed = ref 0.0 in
    for v = 0 to Lp.nvars p - 1 do
      let lb = Lp.var_lb p v and ub = Lp.var_ub p v in
      if not (Num.geq ~eps x.(v) lb && Num.leq ~eps x.(v) ub) then
        add (Bound_violated { var = v; value = x.(v); lb; ub });
      recomputed := !recomputed +. (Lp.var_obj p v *. x.(v))
    done;
    if not (Num.approx_eq ~eps !recomputed sol.Lp.objective) then
      add
        (Objective_mismatch
           { reported = sol.Lp.objective; recomputed = !recomputed });
    (match bound with
    | Some b ->
      let fine =
        match Lp.objective_sense p with
        | Lp.Minimize -> Num.leq ~eps b sol.Lp.objective
        | Lp.Maximize -> Num.geq ~eps b sol.Lp.objective
      in
      if not fine then
        add (Bound_direction { bound = b; objective = sol.Lp.objective })
    | None -> ());
    { lp_violations = List.rev !violations; recomputed_objective = !recomputed }

(* ---- cross-solver differential harness ---- *)

type issue = { instance_id : int; solver : string; detail : string }

type report = {
  instances : int;
  solutions : int;
  issues : issue list;
  determinism_checked : bool;
  determinism_ok : bool;
}

let report_to_string r =
  let head =
    Printf.sprintf
      "differential: %d instances, %d solutions certified, %d issue(s)%s"
      r.instances r.solutions (List.length r.issues)
      (if r.determinism_checked then
         if r.determinism_ok then ", -j determinism ok"
         else ", -j DETERMINISM BROKEN"
       else "")
  in
  match r.issues with
  | [] -> head
  | issues ->
    String.concat "\n"
      (head
       :: List.map
            (fun i ->
              Printf.sprintf "  instance %d / %s: %s" i.instance_id i.solver
                i.detail)
            issues)

(* One per-solver summary row of a differential cell.  [viols] carries
   the rendered certificate violations; [complete] is the oracle-assisted
   satisfaction test used by the ordering assertions. *)
type row = {
  name : string;
  cost : float;
  sat : float;
  proved : bool;  (* meaningful for "opt" only *)
  viols : string list;
}

(* Instance stream: rotate small topology families and disruption
   models; demands are redrawn until routable on the intact graph, so
   every generated instance is solvable by construction (as in the
   paper's setup).  All randomness is consumed here, before any cell
   runs — cells are pure and may execute on worker domains. *)
let gen_instance rng i =
  let g =
    match i mod 4 with
    | 0 ->
      Netrec_graph.Generate.erdos_renyi ~rng ~n:(8 + Rng.int rng 5) ~p:0.5
        ~capacity:10.0
    | 1 -> Netrec_graph.Generate.grid ~width:3 ~height:3 ~capacity:10.0
    | 2 -> Netrec_graph.Generate.ring ~n:(8 + Rng.int rng 5) ~capacity:10.0
    | _ ->
      Netrec_graph.Generate.erdos_renyi ~rng ~n:10 ~p:0.4 ~capacity:8.0
  in
  let count = 1 + Rng.int rng 3 in
  let amount = 1.0 +. Rng.float rng 3.0 in
  let feasible = Netrec_topo.Demand_gen.feasible ~rng ~tries:40 in
  let g, demands =
    match feasible ~count ~amount g with
    | Some ds -> (g, ds)
    | None ->
      (* Disconnected draw or over-tight capacities: fall back to a
         generously-provisioned grid, which always admits far pairs. *)
      let g = Netrec_graph.Generate.grid ~width:3 ~height:3 ~capacity:50.0 in
      (g, Option.get (feasible ~count:1 ~amount:1.0 g))
  in
  let failure =
    match i mod 3 with
    | 0 -> Failure.complete g
    | 1 -> Models.uniform ~rng ~p_vertex:0.3 ~p_edge:0.4 g
    | _ -> Models.uniform ~rng ~p_vertex:0.6 ~p_edge:0.6 g
  in
  Instance.make ~graph:g ~demands ~failure ()

let eval_cell ~opt_nodes ~cross_check inst =
  let solutions =
    [ ("isp", fst (Isp.solve inst), true);
      ("srt", H.Srt.solve inst, true);
      ("srt-resid", H.Srt.solve_residual inst, true);
      ("grd-com", H.Greedy.grd_com inst, true);
      ("grd-nc", H.Greedy.grd_nc inst, true);
      ("all", Instance.repair_all inst, true) ]
    @ (match H.Mcf_heuristic.solve inst with
      | Some r ->
        [ ("mcf-support", r.H.Mcf_heuristic.support, true);
          ("mcb", r.H.Mcf_heuristic.mcb, true);
          ("mcw", r.H.Mcf_heuristic.mcw, true) ]
      | None -> [])
    @ (let r = H.Opt.solve ~node_limit:opt_nodes inst in
       [ ("opt", r.H.Opt.solution, r.H.Opt.proved) ])
    @
    (* Accelerator oracles: re-solve with per-node cold LP solves, with
       presolve off and with cuts off, and let [analyze]'s assertions pit
       each against the full pipeline — when both sides prove optimality
       their recomputed costs must agree bit-for-bit. *)
    if cross_check then
      let cold = H.Opt.solve ~warm:false ~node_limit:opt_nodes inst in
      let nopre = H.Opt.solve ~presolve:false ~node_limit:opt_nodes inst in
      let nocut = H.Opt.solve ~cuts:false ~node_limit:opt_nodes inst in
      [ ("opt-cold", cold.H.Opt.solution, cold.H.Opt.proved);
        ("opt-nopre", nopre.H.Opt.solution, nopre.H.Opt.proved);
        ("opt-nocuts", nocut.H.Opt.solution, nocut.H.Opt.proved) ]
    else []
  in
  List.map
    (fun (name, sol, proved) ->
      let cert = certify inst sol in
      { name;
        cost = cert.recomputed_cost;
        sat = Evaluate.satisfied_fraction inst sol;
        proved;
        viols = List.map violation_to_string cert.violations })
    solutions

(* Solvers that must fully serve the demand on a feasible instance.
   ISP loops until the oracle certifies routability, GRD-NC stops only
   on a Routable verdict, MCB repairs the full support of a feasible LP
   routing, and ALL repairs everything — all four carry a completeness
   guarantee.  SRT computes per-demand bundles on nominal capacities
   (contending demands can leave it short — the paper reports its
   satisfaction as a metric, Fig. 5), its residual variant is
   augmenting-path greedy without backward arcs, and GRD-COM commits
   paths early; those are certified structurally but exempt from the
   completeness assertion, as are MCW and the raw relaxation support
   (sub-tolerance flow may be dropped). *)
let must_serve = [ "isp"; "grd-nc"; "mcb"; "all" ]

let analyze rows =
  let issues = ref [] in
  let add solver detail = issues := (solver, detail) :: !issues in
  List.iter
    (fun r ->
      List.iter (fun v -> add r.name v) r.viols;
      if
        List.mem r.name must_serve
        && not (Num.geq ~eps:Num.feas_eps r.sat 1.0)
      then
        add r.name
          (Printf.sprintf "serves only %.3f of the demand on a feasible \
                           instance"
             r.sat))
    rows;
  (match List.find_opt (fun r -> r.name = "opt") rows with
  | Some opt when opt.proved ->
    if not (Num.geq ~eps:Num.feas_eps opt.sat 1.0) then
      add "opt"
        (Printf.sprintf "proved optimal but serves only %.3f" opt.sat);
    List.iter
      (fun r ->
        if
          r.name <> "opt" && r.viols = []
          && Num.geq ~eps:Num.feas_eps r.sat 1.0
          && not (Num.leq ~eps:Num.feas_eps opt.cost r.cost)
        then
          add "opt"
            (Printf.sprintf
               "cost ordering broken: cost(OPT) = %g > cost(%s) = %g"
               opt.cost r.name r.cost))
      rows
  | _ -> ());
  (* Accelerator divergence: with both searches run to a proof, neither
     basis reuse nor presolve nor cutting planes may change the optimum.
     The cold oracle keeps the historical feasibility tolerance; the
     presolve-off and cuts-off oracles demand bit-for-bit agreement of
     the recomputed costs (the repair sets may differ, their costs may
     not). *)
  (match List.find_opt (fun r -> r.name = "opt") rows with
  | Some w when w.proved ->
    List.iter
      (fun (oracle, what, exact) ->
        match List.find_opt (fun r -> r.name = oracle) rows with
        | Some c when c.proved ->
          let diverged =
            if exact then not (Float.equal w.cost c.cost)
            else abs_float (w.cost -. c.cost) > Num.feas_eps
          in
          if diverged then
            add oracle
              (Printf.sprintf "warm-started OPT diverges from %s: %g vs %g"
                 what w.cost c.cost)
        | _ -> ())
      [ ("opt-cold", "cold oracle", false);
        ("opt-nopre", "presolve-off oracle", true);
        ("opt-nocuts", "cuts-off oracle", true) ]
  | _ -> ());
  List.rev !issues

let differential ?(seed = 0xC0FFEE) ?(instances = 200) ?(opt_nodes = 400)
    ?pool () =
  let master = Rng.create seed in
  let insts =
    Array.init instances (fun i -> (i, gen_instance (Rng.split master) i))
  in
  (* Every 16th cell also runs the cold branch-and-bound oracle. *)
  let eval _ (i, inst) = eval_cell ~opt_nodes ~cross_check:(i mod 16 = 0) inst in
  let results =
    match pool with
    | Some p -> Pool.map p eval insts
    | None -> Array.mapi eval insts
  in
  let issues = ref [] in
  Array.iteri
    (fun i rows ->
      List.iter
        (fun (solver, detail) ->
          issues := { instance_id = i; solver; detail } :: !issues)
        (analyze rows))
    results;
  let determinism_checked =
    (match pool with Some p -> Pool.jobs p > 1 | None -> false)
    && instances > 0
  in
  let determinism_ok =
    (not determinism_checked) || eval 0 insts.(0) = results.(0)
  in
  if determinism_checked && not determinism_ok then
    issues :=
      { instance_id = 0;
        solver = "harness";
        detail = "pooled cell differs from its sequential re-run" }
      :: !issues;
  { instances;
    solutions = Array.fold_left (fun acc rows -> acc + List.length rows) 0 results;
    issues = List.rev !issues;
    determinism_checked;
    determinism_ok }
