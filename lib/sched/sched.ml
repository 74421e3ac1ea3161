module Instance = Netrec_core.Instance
module Schedule = Netrec_core.Schedule
module Budget = Netrec_resilience.Budget
module Pool = Netrec_parallel.Pool
module Check = Netrec_check.Check
module Obs = Netrec_obs.Obs
module Stats = Netrec_util.Stats
module Lp = Netrec_lp.Lp
module Milp = Netrec_lp.Milp
module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
module Routing = Netrec_flow.Routing

type element = Schedule.element

type capacity = { crews : int; round_budget : float option }

let capacity ?round_budget ~crews () =
  if crews < 1 then invalid_arg "Sched.capacity: crews < 1";
  (match round_budget with
  | Some b when b <= 0.0 -> invalid_arg "Sched.capacity: round_budget <= 0"
  | _ -> ());
  { crews; round_budget }

let default_cap = { crews = 1; round_budget = None }

type round = { elements : element list; cost : float; satisfied : float }

type plan = { rounds : round list; baseline : float; auc : float }

let order_of plan = List.concat_map (fun r -> r.elements) plan.rounds

let cost_of inst = function
  | `Vertex v -> inst.Instance.vertex_cost.(v)
  | `Edge e -> inst.Instance.edge_cost.(e)

(* Greedy round filling: close the open round when the next element
   would exceed the crew count or the cost budget.  A round is never
   left empty — an element more expensive than the whole budget still
   ships alone, so chunking always terminates with every element
   placed (the progress guarantee the MILP's feasibility witness
   relies on).  [price] is the repair cost of one item of [order]. *)
let chunk cap price order =
  let rec go acc cur n cost = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | el :: rest ->
      let c = price el in
      let over_crews = n >= cap.crews in
      let over_budget =
        match cap.round_budget with
        | Some b -> cost +. c > b +. 1e-9
        | None -> false
      in
      if cur <> [] && (over_crews || over_budget) then
        go (List.rev cur :: acc) [ el ] 1 c rest
      else go acc (el :: cur) (n + 1) (cost +. c) rest
  in
  go [] [] 0 0.0 order

let eval_groups inst groups =
  Obs.count ~n:(List.length groups) "sched.evals";
  Schedule.prefix_satisfactions inst groups

(* A plan's AUC from its per-round satisfactions. *)
let auc_of ~baseline = function [] -> baseline | sats -> Stats.mean sats

let round_of inst els satisfied =
  { elements = els;
    cost = List.fold_left (fun acc el -> acc +. cost_of inst el) 0.0 els;
    satisfied }

let plan_of ~baseline inst groups sats =
  let rounds = List.map2 (round_of inst) groups sats in
  let auc = auc_of ~baseline sats in
  Obs.count "sched.plans";
  Obs.count ~n:(List.length rounds) "sched.rounds";
  List.iteri
    (fun i r ->
      Obs.observe "sched.round_satisfaction" r.satisfied;
      if Obs.enabled () then
        Obs.event "sched.round"
          [ ("round", float_of_int (i + 1));
            ("satisfied", r.satisfied);
            ("cost", r.cost) ])
    rounds;
  { rounds; baseline; auc }

let finish_plan ~baseline inst groups =
  plan_of ~baseline inst groups (eval_groups inst groups)

let of_order ?(cap = default_cap) inst order =
  match Schedule.validate_order inst order with
  | Error e -> Error e
  | Ok () ->
    let baseline = Schedule.baseline_satisfaction inst in
    Ok (finish_plan ~baseline inst (chunk cap (cost_of inst) order))

let validated_exn ctx inst order =
  match Schedule.validate_order inst order with
  | Ok () -> ()
  | Error e ->
    invalid_arg (ctx ^ ": " ^ Schedule.order_error_to_string e)

let greedy ?(cap = default_cap) inst solution =
  let order = Schedule.greedy_order inst solution in
  let baseline = Schedule.baseline_satisfaction inst in
  finish_plan ~baseline inst (chunk cap (cost_of inst) order)

(* {1 Local search} *)

type search_stats = {
  passes : int;
  moves_tried : int;
  moves_applied : int;
  prefix_evals : int;
  memo_hits : int;
  limited : Budget.reason option;
}

type move = Swap of int * int | Insert of int * int

let apply_move arr = function
  | Swap (i, j) ->
    let a = Array.copy arr in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t;
    a
  | Insert (i, j) ->
    (* Remove position [i], re-insert so the element lands at [j]. *)
    let k = Array.length arr in
    let a = Array.make k arr.(0) in
    let el = arr.(i) in
    let p = ref 0 in
    for q = 0 to k - 1 do
      if q <> i then begin
        if !p = j then incr p;
        a.(!p) <- arr.(q);
        incr p
      end
    done;
    a.(j) <- el;
    a

(* The full neighborhood is O(k^2); above [max_moves] take a
   deterministic stride sample so pass cost is bounded and [-j]
   independent. *)
let sample_moves max_moves moves =
  let n = List.length moves in
  if n <= max_moves then moves
  else
    let stride = (n + max_moves - 1) / max_moves in
    List.filteri (fun i _ -> i mod stride = 0) moves

let neighborhood k =
  let moves = ref [] in
  for i = k - 1 downto 0 do
    for j = k - 1 downto i + 1 do
      moves := Swap (i, j) :: !moves
    done
  done;
  for i = k - 1 downto 0 do
    for j = k - 1 downto 0 do
      if j <> i && j <> i - 1 then moves := Insert (i, j) :: !moves
    done
  done;
  !moves

(* Exact prefix satisfaction memoized by repaired set, one table per
   [local_search] call.  The search permutes the dense indices 0..k-1
   of its input order [els], and a set is keyed by its bitset, a
   string of ceil(k/8) bytes.  A value depends on its set alone
   ([Schedule.satisfaction]), so a hit is the very float a fresh
   [Schedule.prefix_satisfactions] would return. *)
type memo = {
  inst : Instance.t;
  cap : capacity;
  els : element array;
  table : (string, float) Hashtbl.t;
  mutable evals : int;  (* prefixes requested *)
  mutable hits : int;  (* of those, answered from [table] *)
}

(* The rounds of an order of dense indices. *)
let rounds m ord =
  chunk m.cap (fun i -> cost_of m.inst m.els.(i)) (Array.to_list ord)

(* The key of each cumulative round prefix of [ord]. *)
let prefix_keys m ord =
  let bits = Bytes.make ((Array.length m.els + 7) / 8) '\000' in
  List.map
    (fun group ->
      List.iter
        (fun i ->
          let b = i lsr 3 in
          Bytes.set_uint8 bits b
            (Bytes.get_uint8 bits b lor (1 lsl (i land 7))))
        group;
      Bytes.to_string bits)
    (rounds m ord)

let members m key =
  let acc = ref [] in
  for i = Array.length m.els - 1 downto 0 do
    if Char.code key.[i lsr 3] land (1 lsl (i land 7)) <> 0 then
      acc := m.els.(i) :: !acc
  done;
  !acc

(* Make the table hold the set of every round prefix of the orders
   [order_of 0] .. [order_of (n - 1)].  The sets it lacks are listed in
   first-seen order, evaluated (on [pool] when given) and inserted in
   index order before any is read, so the table and the counters are
   the same for any [-j].  Every prefix counts as an evaluation, and
   every one not solved here as a hit.  The caller builds each order
   again to read it ([sats]) rather than keep its keys, so a pass
   holds O(distinct sets) keys, not O(moves x rounds). *)
let fill ?pool m n order_of =
  let listed = Hashtbl.create 64 and missing = ref [] and requested = ref 0 in
  for i = 0 to n - 1 do
    List.iter
      (fun key ->
        incr requested;
        if not (Hashtbl.mem m.table key || Hashtbl.mem listed key) then begin
          Hashtbl.add listed key ();
          missing := key :: !missing
        end)
      (prefix_keys m (order_of i))
  done;
  let missing = Array.of_list (List.rev !missing) in
  let eval _ key = Schedule.satisfaction m.inst (members m key) in
  let sats =
    match pool with
    | Some p -> Pool.map p eval missing
    | None -> Array.mapi eval missing
  in
  Array.iteri (fun i key -> Hashtbl.add m.table key sats.(i)) missing;
  let hits = !requested - Array.length missing in
  Obs.count ~n:!requested "sched.evals";
  Obs.count ~n:hits "sched.eval_cache_hits";
  m.evals <- m.evals + !requested;
  m.hits <- m.hits + hits

(* The satisfactions of a filled order's round prefixes, in round
   order. *)
let sats m ord = List.map (Hashtbl.find m.table) (prefix_keys m ord)

let local_search ?(budget = Budget.unlimited) ?pool ?(max_passes = 32)
    ?(max_moves = 512) ~cap inst order =
  if max_moves < 1 then invalid_arg "Sched.local_search: max_moves < 1";
  if max_passes < 0 then invalid_arg "Sched.local_search: max_passes < 0";
  validated_exn "Sched.local_search" inst order;
  (* Materialise at 0: an already-optimal input applies no moves, and
     the metrics gate checks presence, not growth. *)
  Obs.count ~n:0 "sched.moves_applied";
  let baseline = Schedule.baseline_satisfaction inst in
  let m =
    { inst; cap; els = Array.of_list order; table = Hashtbl.create 256;
      evals = 0; hits = 0 }
  in
  let k = Array.length m.els in
  let arr = ref (Array.init k Fun.id) in
  fill ?pool m 1 (fun _ -> !arr);
  let cur = ref (auc_of ~baseline (sats m !arr)) in
  let moves =
    if k < 2 then [||]
    else Array.of_list (sample_moves max_moves (neighborhood k))
  in
  let passes = ref 0 and tried = ref 0 and applied = ref 0 in
  let improving = ref (Array.length moves > 0) in
  while !improving && !passes < max_passes && Budget.ok budget do
    incr passes;
    Obs.count "sched.ls_passes";
    let current = !arr in
    let candidate i = apply_move current moves.(i) in
    let n = Array.length moves in
    fill ?pool m n candidate;
    tried := !tried + n;
    Obs.count ~n "sched.moves_tried";
    Budget.spend ~n budget;
    (* Best improvement; ties break on the lowest move index (strict >
       keeps the earliest maximum), so the chosen move — and therefore
       the whole trajectory — is identical for any [-j]. *)
    let best = ref (-1) and best_auc = ref (!cur +. 1e-9) in
    for i = 0 to n - 1 do
      let a = auc_of ~baseline (sats m (candidate i)) in
      if a > !best_auc then begin
        best := i;
        best_auc := a
      end
    done;
    if !best >= 0 then begin
      arr := apply_move current moves.(!best);
      cur := !best_auc;
      incr applied;
      Obs.count "sched.moves_applied"
    end
    else improving := false
  done;
  (* The final order was scored as a candidate, so its prefixes are all
     hits; [fill] still counts them, as the plan requests them. *)
  fill m 1 (fun _ -> !arr);
  let groups = List.map (List.map (Array.get m.els)) (rounds m !arr) in
  let plan = plan_of ~baseline inst groups (sats m !arr) in
  ( plan,
    { passes = !passes;
      moves_tried = !tried;
      moves_applied = !applied;
      prefix_evals = m.evals;
      memo_hits = m.hits;
      (* [check] (not [tripped]) so an overspent budget latches even
         when the loop exited for another reason first. *)
      limited = Budget.check budget } )

(* {1 Exact MILP oracle} *)

type oracle_result = {
  plan : plan;
  proved : bool;
  nodes : int;
  pivots : int;
  milp_auc : float;
  limited : Budget.reason option;
}

type oracle_error =
  | Malformed of Schedule.order_error
  | Too_big of { vars : int; cap : int }
  | No_incumbent of Budget.reason option

(* Time-indexed assignment MILP.  Variables, in layout order:
   - z_{i,t} (binary): element [i] repaired in round [t];
   - f/b_{t,h,e}: forward/backward flow of commodity [h] on live edge
     [e] in round [t] (bounded by the edge capacity);
   - s_{t,h} in [0, amount_h]: demand served in round [t], objective
     coefficient -1 (minimizing yields maximal total service).
   Each round carries an independent flow block; broken elements gate
   their capacity through the cumulative availability
   X_{i,t} = sum_{t'<=t} z_{i,t'}. *)
let oracle ?(budget = Budget.unlimited) ?(node_limit = 20_000)
    ?(var_cap = 20_000) ~cap inst elements =
  match Schedule.validate_order inst elements with
  | Error e -> Error (Malformed e)
  | Ok () -> (
    Obs.count "sched.oracle_solves";
    let baseline = Schedule.baseline_satisfaction inst in
    let els = Array.of_list elements in
    let k = Array.length els in
    let groups = chunk cap (cost_of inst) elements in
    let tr = List.length groups in
    let g = inst.Instance.graph in
    let fl = inst.Instance.failure in
    let nv = Graph.nv g and ne = Graph.ne g in
    let sched_v = Array.make nv (-1) and sched_e = Array.make ne (-1) in
    Array.iteri
      (fun i -> function
        | `Vertex v -> sched_v.(v) <- i
        | `Edge e -> sched_e.(e) <- i)
      els;
    let v_usable v = (not (Failure.vertex_broken fl v)) || sched_v.(v) >= 0 in
    let e_usable e =
      ((not (Failure.edge_broken fl e)) || sched_e.(e) >= 0)
      && Graph.capacity g e > 0.0
      &&
      let u, w = Graph.endpoints g e in
      v_usable u && v_usable w
    in
    let live = ref [] in
    for e = ne - 1 downto 0 do
      if e_usable e then live := e :: !live
    done;
    let live = Array.of_list !live in
    let nlive = Array.length live in
    (* Position of each edge in [live], -1 when unusable: shared by the
       vertex big-M rows and flow conservation. *)
    let slot = Array.make ne (-1) in
    Array.iteri (fun le e -> slot.(e) <- le) live;
    let demands =
      Array.of_list
        (List.filter
           (fun d ->
             v_usable d.Commodity.src && v_usable d.Commodity.dst
             && d.Commodity.amount > 0.0)
           inst.Instance.demands)
    in
    let nh = Array.length demands in
    let total = Commodity.total inst.Instance.demands in
    let trivial () =
      (* Nothing to optimize: any assignment scores the same. *)
      let plan = finish_plan ~baseline inst groups in
      Ok
        { plan;
          proved = true;
          nodes = 0;
          pivots = 0;
          milp_auc = plan.auc;
          limited = None }
    in
    if k = 0 || tr <= 1 || total <= 0.0 || nh = 0 then trivial ()
    else
      let nvars = (k * tr) + (2 * tr * nh * nlive) + (tr * nh) in
      if nvars > var_cap then Error (Too_big { vars = nvars; cap = var_cap })
      else begin
        let p = Lp.create () in
        let zv i t = (i * tr) + t in
        for _ = 0 to (k * tr) - 1 do
          ignore (Lp.add_var p ~lb:0.0 ~ub:1.0 ())
        done;
        let base_flow = k * tr in
        let fwd t h le = base_flow + (2 * ((((t * nh) + h) * nlive) + le)) in
        let bwd t h le = fwd t h le + 1 in
        for t = 0 to tr - 1 do
          ignore t;
          for h = 0 to nh - 1 do
            ignore h;
            for le = 0 to nlive - 1 do
              let c = Graph.capacity g live.(le) in
              ignore (Lp.add_var p ~lb:0.0 ~ub:c ());
              ignore (Lp.add_var p ~lb:0.0 ~ub:c ())
            done
          done
        done;
        let sv t h = base_flow + (2 * tr * nh * nlive) + (t * nh) + h in
        for t = 0 to tr - 1 do
          ignore t;
          for h = 0 to nh - 1 do
            ignore
              (Lp.add_var p ~lb:0.0 ~ub:demands.(h).Commodity.amount
                 ~obj:(-1.0) ())
          done
        done;
        (* Every element lands in exactly one round. *)
        for i = 0 to k - 1 do
          let terms = List.init tr (fun t -> (zv i t, 1.0)) in
          Lp.add_constraint p terms Lp.Eq 1.0
        done;
        (* Per-round crew and cost caps.  The cost cap is relaxed to the
           most expensive single element so the chunked witness (which
           ships an over-budget element alone) stays feasible. *)
        for t = 0 to tr - 1 do
          let terms = List.init k (fun i -> (zv i t, 1.0)) in
          Lp.add_constraint p terms Lp.Le (float_of_int cap.crews)
        done;
        (match cap.round_budget with
        | None -> ()
        | Some b ->
          let max_cost =
            Array.fold_left
              (fun acc el -> Float.max acc (cost_of inst el))
              b els
          in
          for t = 0 to tr - 1 do
            let terms = List.init k (fun i -> (zv i t, cost_of inst els.(i))) in
            Lp.add_constraint p terms Lp.Le max_cost
          done);
        let avail_terms i t coef =
          List.init (t + 1) (fun t' -> (zv i t', coef))
        in
        (* Joint edge capacity per round; broken edges carry capacity
           only once repaired. *)
        for t = 0 to tr - 1 do
          for le = 0 to nlive - 1 do
            let e = live.(le) in
            let c = Graph.capacity g e in
            let flow_terms =
              List.concat
                (List.init nh (fun h ->
                     [ (fwd t h le, 1.0); (bwd t h le, 1.0) ]))
            in
            if Failure.edge_broken fl e then
              Lp.add_constraint p
                (flow_terms @ avail_terms sched_e.(e) t (-.c))
                Lp.Le 0.0
            else Lp.add_constraint p flow_terms Lp.Le c
          done
        done;
        (* Broken vertices block all incident flow until repaired
           (big-M = total live incident capacity). *)
        for v = 0 to nv - 1 do
          if Failure.vertex_broken fl v && sched_v.(v) >= 0 then begin
            let inc =
              List.filter_map
                (fun (_, e) -> if slot.(e) >= 0 then Some slot.(e) else None)
                (Graph.incident g v)
            in
            if inc <> [] then begin
              let m =
                List.fold_left
                  (fun acc le -> acc +. Graph.capacity g live.(le))
                  0.0 inc
              in
              for t = 0 to tr - 1 do
                let flow_terms =
                  List.concat
                    (List.init nh (fun h ->
                         List.concat_map
                           (fun le ->
                             [ (fwd t h le, 1.0); (bwd t h le, 1.0) ])
                           inc))
                in
                Lp.add_constraint p
                  (flow_terms @ avail_terms sched_v.(v) t (-.m))
                  Lp.Le 0.0
              done
            end
          end
        done;
        (* Flow conservation per (round, commodity, usable vertex);
           served volume [s] enters at the source and leaves at the
           sink.  Forward flow runs first->second endpoint. *)
        let incident_live =
          Array.init nv (fun v ->
              if not (v_usable v) then []
              else
                List.filter_map
                  (fun (_, e) ->
                    if slot.(e) < 0 then None
                    else
                      let u, _ = Graph.endpoints g e in
                      Some (slot.(e), if u = v then 1 else -1))
                  (Graph.incident g v))
        in
        for t = 0 to tr - 1 do
          for h = 0 to nh - 1 do
            let d = demands.(h) in
            for v = 0 to nv - 1 do
              if v_usable v then begin
                let terms =
                  List.concat_map
                    (fun (le, dir) ->
                      if dir > 0 then
                        [ (fwd t h le, 1.0); (bwd t h le, -1.0) ]
                      else [ (bwd t h le, 1.0); (fwd t h le, -1.0) ])
                    incident_live.(v)
                in
                let terms =
                  if v = d.Commodity.src then (sv t h, -1.0) :: terms
                  else if v = d.Commodity.dst then (sv t h, 1.0) :: terms
                  else terms
                in
                if terms <> [] then Lp.add_constraint p terms Lp.Eq 0.0
              end
            done
          done
        done;
        (* LP-tightening: service through a broken endpoint needs the
           endpoint repaired (implied by conservation + big-M, but this
           form strengthens the relaxation's bound). *)
        for h = 0 to nh - 1 do
          let d = demands.(h) in
          List.iter
            (fun v ->
              if Failure.vertex_broken fl v && sched_v.(v) >= 0 then
                for t = 0 to tr - 1 do
                  Lp.add_constraint p
                    ((sv t h, 1.0)
                    :: avail_terms sched_v.(v) t (-.d.Commodity.amount))
                    Lp.Le 0.0
                done)
            [ d.Commodity.src; d.Commodity.dst ]
        done;
        let binary = List.init (k * tr) (fun i -> i) in
        let r = Milp.solve ~budget ~node_limit ~binary p in
        Obs.count ~n:r.Milp.nodes "sched.oracle_nodes";
        match r.Milp.status with
        | `Infeasible | `Unknown -> Error (No_incumbent r.Milp.limited)
        | `Optimal | `Feasible ->
          if r.Milp.proved then Obs.count "sched.oracle_proved";
          let groups =
            List.init tr (fun t ->
                List.filteri
                  (fun i _ -> r.Milp.values.(zv i t) > 0.5)
                  elements)
          in
          let plan = finish_plan ~baseline inst groups in
          Ok
            { plan;
              proved = r.Milp.proved;
              nodes = r.Milp.nodes;
              pivots = r.Milp.pivots;
              milp_auc = -.r.Milp.objective /. (float_of_int tr *. total);
              limited = r.Milp.limited }
      end)

let regret ~oracle plan =
  Float.max 0.0 ((oracle.auc -. plan.auc) /. Float.max oracle.auc 1e-9)

let certify_rounds inst plan =
  let acc_v = ref [] and acc_e = ref [] in
  List.map
    (fun r ->
      List.iter
        (function
          | `Vertex v -> acc_v := v :: !acc_v
          | `Edge e -> acc_e := e :: !acc_e)
        r.elements;
      let sol =
        { Instance.repaired_vertices = List.rev !acc_v;
          repaired_edges = List.rev !acc_e;
          routing = Routing.empty }
      in
      Check.certify inst sol)
    plan.rounds
