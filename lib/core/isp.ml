module Num = Netrec_util.Num
module Failure = Netrec_disrupt.Failure
module Obs = Netrec_obs.Obs
module Commodity = Netrec_flow.Commodity
module Routing = Netrec_flow.Routing
module Oracle = Netrec_flow.Oracle
module Mcf_lp = Netrec_flow.Mcf_lp
module Route_greedy = Netrec_flow.Route_greedy
module Budget = Netrec_resilience.Budget

let log_src = Logs.Src.create "netrec.isp" ~doc:"ISP algorithm trace"

module Log = (val Logs.src_log log_src : Logs.LOG)

type length_mode = Dynamic | Hop

type config = {
  length_mode : length_mode;
  split_candidates : int;
  incremental_centrality : bool;
  centrality_sample : int option;
  bundle_max_paths : int option;
}

let default_config =
  { length_mode = Dynamic;
    split_candidates = 5;
    incremental_centrality = true;
    centrality_sample = None;
    bundle_max_paths = None }

type stats = {
  iterations : int;
  splits : int;
  prunes : int;
  direct_edge_repairs : int;
  endpoint_repairs : int;
  fallback_paths : int;
  wall_seconds : float;
  limited : Budget.reason option;
}

type state = {
  inst : Instance.t;
  cfg : config;
  budget : Budget.t;
  resid : float array;  (* residual capacities c^(n) *)
  broken_v : bool array;  (* V_B^(n): still broken, not listed for repair *)
  broken_e : bool array;
  repaired_v : bool array;  (* the repair list L^(n) *)
  repaired_e : bool array;
  mutable demands : Commodity.t list;  (* H^(n) *)
  mutable routing : Routing.t;  (* committed by prunes *)
  cent_cache : Centrality.Cache.cache option;
  mutable splits : int;
  mutable prunes : int;
  mutable direct_edge_repairs : int;
  mutable endpoint_repairs : int;
  mutable fallback_paths : int;
}

let eps = Num.flow_eps

(* The [const] of the §IV-D metric: the length of a working link. *)
let length_const = 1.0

(* Exact-LP size threshold for the inner oracles, and the GK accuracy
   used above it. *)
let lp_var_budget = 2500
let gk_eps = 0.05

(* ---- availability predicates ---- *)

let working_vertex st v = not st.broken_v.(v)

let working_edge st e =
  (not st.broken_e.(e))
  &&
  let u, v = Graph.endpoints st.inst.Instance.graph e in
  working_vertex st u && working_vertex st v

(* The §IV-D dynamic metric on the full graph: repair costs of elements
   not yet listed for repair inflate the length; residual capacity
   deflates it. *)
let length_metric st e =
  match st.cfg.length_mode with
  | Hop -> 1.0
  | Dynamic ->
    let g = st.inst.Instance.graph in
    let u, v = Graph.endpoints g e in
    let ke = if st.broken_e.(e) then st.inst.Instance.edge_cost.(e) else 0.0 in
    let kv w =
      if st.broken_v.(w) then st.inst.Instance.vertex_cost.(w) else 0.0
    in
    let c = Float.max st.resid.(e) eps in
    (length_const +. ke +. ((kv u +. kv v) /. 2.0)) /. c

(* ---- repairs ---- *)

(* A repair flips an element broken -> repaired, which drops its repair
   cost out of the §IV-D metric: lengths can only get SHORTER anywhere
   near it, so every cached centrality bundle becomes suspect.  Under the
   Hop metric lengths are constant and repairs leave every centrality
   input untouched, so the cache survives. *)
let note_improvement st =
  match (st.cent_cache, st.cfg.length_mode) with
  | Some c, Dynamic -> Centrality.Cache.note_improved c
  | Some _, Hop | None, _ -> ()

let repair_vertex st v =
  if st.broken_v.(v) then begin
    st.broken_v.(v) <- false;
    st.repaired_v.(v) <- true;
    note_improvement st
  end

let repair_edge st e =
  if st.broken_e.(e) then begin
    st.broken_e.(e) <- false;
    st.repaired_e.(e) <- true;
    note_improvement st
  end

(* ---- oracles ---- *)

let termination_check st =
  Obs.span "isp.oracle" @@ fun () ->
  Oracle.routable ~budget:st.budget
    ~vertex_ok:(working_vertex st)
    ~edge_ok:(fun e -> working_edge st e)
    ~lp_var_budget ~gk_eps
    ~cap:(fun e -> st.resid.(e))
    st.inst.Instance.graph st.demands

(* ---- prune ---- *)

let commit_prune st h (pr : Bubble.prune) =
  (* Consume residual capacity along the pruned paths and shrink the
     demand. *)
  Log.debug (fun m ->
      m "prune %a: %g units over %d path(s)" Commodity.pp h pr.Bubble.amount
        (List.length pr.Bubble.paths));
  List.iter
    (fun (p, amount) ->
      List.iter
        (fun e ->
          st.resid.(e) <- Float.max 0.0 (st.resid.(e) -. amount);
          (* Residual shrank -> the dynamic length grew: a pure
             worsening, so only bundles using [e] need recomputing. *)
          match st.cent_cache with
          | Some c -> Centrality.Cache.note_worse c e
          | None -> ())
        p)
    pr.Bubble.paths;
  st.routing <-
    { Routing.demand = { h with Commodity.amount = pr.Bubble.amount };
      paths = pr.Bubble.paths }
    :: st.routing;
  st.demands <-
    List.map
      (fun d ->
        if d == h then
          { d with Commodity.amount = d.Commodity.amount -. pr.Bubble.amount }
        else d)
      st.demands;
  st.prunes <- st.prunes + 1;
  Obs.count "isp.prunes"

let prune_pass st =
  Obs.span "isp.prune_pass" @@ fun () ->
  let rec fixpoint () =
    let progress = ref false in
    List.iter
      (fun h ->
        if h.Commodity.amount > eps then begin
          match
            Bubble.prune
              ~working_vertex:(working_vertex st)
              ~working_edge:(fun e -> working_edge st e)
              ~cap:(fun e -> st.resid.(e))
              st.inst.Instance.graph ~demands:st.demands h
          with
          | Some pr ->
            commit_prune st h pr;
            progress := true
          | None -> ()
        end)
      st.demands;
    st.demands <- Commodity.normalize st.demands;
    if !progress then fixpoint ()
  in
  fixpoint ()

(* ---- direct edge repairs (§IV-E) ---- *)

let direct_repairs st =
  let g = st.inst.Instance.graph in
  let progress = ref false in
  List.iter
    (fun h ->
      if h.Commodity.amount > eps then begin
        let direct_broken =
          List.filter (fun e -> st.broken_e.(e))
            (Graph.find_edges g h.Commodity.src h.Commodity.dst)
        in
        if direct_broken <> [] then begin
          let satisfiable =
            Maxflow.max_flow_value
              ~vertex_ok:(working_vertex st)
              ~edge_ok:(fun e -> working_edge st e)
              ~cap:(fun e -> st.resid.(e))
              g ~source:h.Commodity.src ~sink:h.Commodity.dst
            >= h.Commodity.amount -. eps
          in
          if not satisfiable then begin
            (* Among parallel direct edges prefer the cheapest that can
               carry the demand alone, then the cheapest overall. *)
            let covering, short =
              List.partition
                (fun e -> st.resid.(e) >= h.Commodity.amount -. eps)
                direct_broken
            in
            let cheapest =
              List.sort
                (fun a b ->
                  compare st.inst.Instance.edge_cost.(a)
                    st.inst.Instance.edge_cost.(b))
                (if covering <> [] then covering else short)
            in
            let chosen = List.hd cheapest in
            Log.debug (fun m ->
                m "direct repair of edge %d for %a" chosen Commodity.pp h);
            repair_edge st chosen;
            st.direct_edge_repairs <- st.direct_edge_repairs + 1;
            Obs.count "isp.direct_edge_repairs";
            progress := true
          end
        end
      end)
    st.demands;
  !progress

(* ---- split ---- *)

let apply_split h v dx demands =
  List.concat_map
    (fun d ->
      if d == h then begin
        let rest =
          if d.Commodity.amount -. dx > eps then
            [ { d with Commodity.amount = d.Commodity.amount -. dx } ]
          else []
        in
        Commodity.make ~src:d.Commodity.src ~dst:v ~amount:dx
        :: Commodity.make ~src:v ~dst:d.Commodity.dst ~amount:dx
        :: rest
      end
      else [ d ])
    demands

(* Maximum splittable amount dx for demand [h] over vertex [v]: the exact
   parametric LP when it fits, otherwise a certified binary search using
   the constructive router on the full residual graph. *)
let max_split_amount st h v =
  let g = st.inst.Instance.graph in
  let d = h.Commodity.amount in
  (* Max-flow pre-bound: dx can never exceed what the residual graph
     carries s->v and v->t even with every other demand dropped, so a
     starved split vertex is rejected without building the parametric
     LP, and otherwise the bound shrinks the LP's [t] box. *)
  let flow_upper =
    let cap e = st.resid.(e) in
    Float.min d
      (Float.min
         (Maxflow.max_flow_value ~cap g ~source:h.Commodity.src ~sink:v)
         (Maxflow.max_flow_value ~cap g ~source:v ~sink:h.Commodity.dst))
  in
  if flow_upper <= eps then 0.0
  else if
    (* Greedy sandwich: [flow_upper] is an upper bound on dx, so if the
       constructive router certifies the post-split demand set at
       exactly [flow_upper] the parametric LP's optimum is pinned to it
       and the solve is skipped. *)
    Route_greedy.route_all
      ~cap:(fun e -> st.resid.(e))
      g
      (Commodity.normalize (apply_split h v flow_upper st.demands))
    <> None
  then flow_upper
  else begin
  let param =
    List.map
      (fun d' ->
        if d' == h then (d', -1.0)
        else (d', 0.0))
      st.demands
    @ [ (Commodity.make ~src:h.Commodity.src ~dst:v ~amount:0.0, 1.0);
        (Commodity.make ~src:v ~dst:h.Commodity.dst ~amount:0.0, 1.0) ]
  in
  match
    Mcf_lp.max_scale ~budget:st.budget ~var_budget:lp_var_budget
      ~cap:(fun e -> st.resid.(e))
      ~tmax:flow_upper g param
  with
  | `Max dx -> Float.min dx d
  | `Too_big | `Undecided ->
    (* Certified binary search: a candidate dx is accepted only when the
       greedy router fully routes the post-split demand set. *)
    let cap e = st.resid.(e) in
    let upper = flow_upper in
    let certified dx =
      dx <= eps
      ||
      let demands' = Commodity.normalize (apply_split h v dx st.demands) in
      Route_greedy.route_all ~cap g demands' <> None
    in
    if upper <= eps then 0.0
    else if certified upper then upper
    else begin
      let lo = ref 0.0 and hi = ref upper in
      for _ = 1 to 12 do
        let mid = (!lo +. !hi) /. 2.0 in
        if certified mid then lo := mid else hi := mid
      done;
      !lo
    end
  end

(* Split-selection rule (§IV-C, Decision 1): among the demands
   contributing to v_BC's centrality pick the one whose routable-through-
   v_BC share is the largest fraction of its endpoint max-flow. *)
let rank_contributors st cent v =
  let g = st.inst.Instance.graph in
  let cap e = st.resid.(e) in
  Centrality.contributors g cent v
  |> List.filter_map (fun (c : Centrality.contribution) ->
         let h = c.Centrality.demand in
         if h.Commodity.src = v || h.Commodity.dst = v then None
         else begin
           let through = Centrality.paths_capacity_through g c v in
           let fstar =
             Maxflow.max_flow_value ~cap g ~source:h.Commodity.src
               ~sink:h.Commodity.dst
           in
           if fstar <= eps then None
           else Some (h, Float.min h.Commodity.amount through /. fstar)
         end)
  |> List.sort (fun (_, r1) (_, r2) -> compare r2 r1)
  |> List.map fst

(* One split step: try the best centrality vertices in order; commit the
   first split with a meaningful dx.  Returns false when no split is
   possible anywhere (the caller then falls back). *)
let split_step st =
  Obs.span "isp.split_step" @@ fun () ->
  let g = st.inst.Instance.graph in
  let cent =
    Centrality.compute ?cache:st.cent_cache ?sample:st.cfg.centrality_sample
      ?max_paths:st.cfg.bundle_max_paths ~length:(length_metric st)
      ~cap:(fun e -> st.resid.(e))
      g st.demands
  in
  let ranked =
    Graph.vertices g
    |> List.filter (fun v -> cent.Centrality.score.(v) > eps)
    |> List.sort
         (fun a b -> compare cent.Centrality.score.(b) cent.Centrality.score.(a))
  in
  let rec try_vertices tried = function
    | [] -> false
    | _ when tried >= st.cfg.split_candidates -> false
    | v :: rest ->
      let rec try_demands = function
        | [] -> None
        | h :: hs -> (
          let dx = max_split_amount st h v in
          if Num.positive ~eps:Num.feas_eps dx then Some (h, dx)
          else try_demands hs)
      in
      (match try_demands (rank_contributors st cent v) with
      | Some (h, dx) ->
        Log.debug (fun m ->
            m "split %a on v%d for dx=%g (centrality %.3f)" Commodity.pp h v
              dx cent.Centrality.score.(v));
        repair_vertex st v;
        st.demands <- Commodity.normalize (apply_split h v dx st.demands);
        st.splits <- st.splits + 1;
        Obs.count "isp.splits";
        true
      | None -> try_vertices (tried + 1) rest)
  in
  try_vertices 0 ranked

(* ---- fallback: repair the cheapest full-graph path for a demand ---- *)

let fallback_repair_path st h =
  let g = st.inst.Instance.graph in
  match
    Dijkstra.shortest_path ~length:(length_metric st) g h.Commodity.src
      h.Commodity.dst
  with
  | None | Some [] -> false
  | Some p ->
    List.iter
      (fun e ->
        repair_edge st e;
        let u, v = Graph.endpoints g e in
        repair_vertex st u;
        repair_vertex st v)
      p;
    st.fallback_paths <- st.fallback_paths + 1;
    Obs.count "isp.fallback_paths";
    true

(* ---- finishing: final routing over the repaired network ---- *)

let final_solution st =
  Obs.span "isp.final_route" @@ fun () ->
  let inst = st.inst in
  let g = inst.Instance.graph in
  let repaired_vertices =
    List.filter (fun v -> st.repaired_v.(v)) (Graph.vertices g)
  in
  let repaired_edges =
    List.filter (fun e -> st.repaired_e.(e)) (List.map (fun e -> e.Graph.id) (Graph.edges g))
  in
  let sol0 =
    { Instance.repaired_vertices; repaired_edges; routing = Routing.empty }
  in
  (* Route the ORIGINAL demands over the post-recovery network with
     nominal capacities; this is the routing artifact ISP reports. *)
  let vertex_ok = Instance.repaired_vertex_ok inst sol0 in
  let edge_ok = Instance.repaired_edge_ok inst sol0 in
  let routing =
    match
      Oracle.routable ~budget:st.budget ~vertex_ok ~edge_ok
        ~lp_var_budget ~gk_eps
        ~cap:(Graph.capacity g) g inst.Instance.demands
    with
    | Oracle.Routable r -> r
    | Oracle.Unroutable | Oracle.Unknown ->
      (* Oracle incompleteness or a genuinely infeasible instance: report
         the best routing we can find. *)
      Oracle.max_satisfiable ~budget:st.budget ~vertex_ok ~edge_ok
        ~lp_var_budget ~cap:(Graph.capacity g) g
        inst.Instance.demands
  in
  { sol0 with Instance.routing }

let solve_body ~config ~budget inst =
  let g = inst.Instance.graph in
  let st =
    { inst;
      cfg = config;
      budget;
      resid = Array.init (Graph.ne g) (Graph.capacity g);
      broken_v = Array.copy inst.Instance.failure.Failure.broken_vertices;
      broken_e = Array.copy inst.Instance.failure.Failure.broken_edges;
      repaired_v = Array.make (Graph.nv g) false;
      repaired_e = Array.make (Graph.ne g) false;
      demands = Commodity.normalize inst.Instance.demands;
      routing = Routing.empty;
      cent_cache =
        (if config.incremental_centrality then Some (Centrality.Cache.create ())
         else None);
      splits = 0;
      prunes = 0;
      direct_edge_repairs = 0;
      endpoint_repairs = 0;
      fallback_paths = 0 }
  in
  (* Step 0: broken demand endpoints are forced repairs (any feasible
     solution must restore them: positive flow leaves/enters them). *)
  List.iter
    (fun v ->
      if st.broken_v.(v) then begin
        repair_vertex st v;
        st.endpoint_repairs <- st.endpoint_repairs + 1
      end)
    (Commodity.endpoints st.demands);
  (* Safety cap; the fallback finishes whatever is left. *)
  let max_iters =
    (20 * (Graph.nv g + Graph.ne g)) + (100 * List.length st.demands)
  in
  let iters = ref 0 in
  let finished = ref false in
  let limited = ref None in
  (* Finish every remaining demand by repairing its cheapest full-graph
     path, then stop: the safety net for the iteration cap and the
     landing path when the cooperative budget trips mid-loop — the
     returned solution stays feasible, just not as cheap. *)
  let finish_by_fallback reason =
    List.iter
      (fun h ->
        if h.Commodity.amount > eps then ignore (fallback_repair_path st h))
      st.demands;
    limited := Some reason;
    Obs.count "isp.budget_fallbacks";
    finished := true
  in
  while not !finished do
    incr iters;
    Obs.count "isp.iterations";
    let (), iter_s =
      Obs.timed "isp.iteration" @@ fun () ->
      Log.debug (fun m ->
          m "iteration %d: %d live demand(s)" !iters (List.length st.demands));
      if Obs.enabled () then begin
        let residual =
          List.fold_left (fun a d -> a +. d.Commodity.amount) 0.0 st.demands
        in
        Obs.gauge "isp.residual_demand" residual;
        (* The recovery curve: residual demand by iteration. *)
        Obs.event "isp.residual"
          [ ("iteration", float_of_int !iters);
            ("residual_demand", residual) ]
      end;
      st.demands <- Commodity.normalize st.demands;
    Budget.spend budget;
    if st.demands = [] then finished := true
    else
      match Budget.check budget with
      | Some reason -> finish_by_fallback reason
      | None -> (
      match termination_check st with
      | Oracle.Routable _ -> finished := true
      | Oracle.Unroutable | Oracle.Unknown ->
        if !iters > max_iters then
          finish_by_fallback
            (Budget.Work { spent = !iters; cap = max_iters })
        else begin
          prune_pass st;
          if st.demands <> [] then begin
            let repaired_direct = direct_repairs st in
            if not repaired_direct then
              if not (split_step st) then begin
                (* No split anywhere: force progress on the largest
                   remaining demand. *)
                match
                  List.sort
                    (fun a b ->
                      compare b.Commodity.amount a.Commodity.amount)
                    (List.filter (fun d -> d.Commodity.amount > eps) st.demands)
                with
                | [] -> ()
                | h :: _ ->
                  if not (fallback_repair_path st h) then
                    (* Endpoints disconnected even on the full graph: the
                       instance is infeasible for this demand; drop it. *)
                    st.demands <-
                      List.filter (fun d -> not (d == h)) st.demands
              end
          end
        end)
    in
    Obs.observe "isp.iteration_ms" (1e3 *. iter_s)
  done;
  let sol = final_solution st in
  let stats =
    { iterations = !iters;
      splits = st.splits;
      prunes = st.prunes;
      direct_edge_repairs = st.direct_edge_repairs;
      endpoint_repairs = st.endpoint_repairs;
      fallback_paths = st.fallback_paths;
      wall_seconds = 0.0;
      limited = !limited }
  in
  (sol, stats)

let solve ?(config = default_config) ?(budget = Budget.unlimited) inst =
  let (sol, stats), wall =
    Obs.timed "isp.solve" (fun () -> solve_body ~config ~budget inst)
  in
  Obs.observe "isp.solve_ms" (1e3 *. wall);
  (sol, { stats with wall_seconds = wall })
