module Instance = Netrec_core.Instance
module Evaluate = Netrec_core.Evaluate
module Failure = Netrec_disrupt.Failure
module Demand_gen = Netrec_topo.Demand_gen
module Commodity = Netrec_flow.Commodity
module Rng = Netrec_util.Rng
module Num = Netrec_util.Num
module Obs = Netrec_obs.Obs
module Table = Netrec_util.Table
module H = Netrec_heuristics

let measure_precomputed inst sol ~seconds =
  let report = Evaluate.assess inst sol in
  [ ("repairs_v", float_of_int report.Evaluate.vertex_repairs);
    ("repairs_e", float_of_int report.Evaluate.edge_repairs);
    ("repairs_total", float_of_int report.Evaluate.total_repairs);
    ("satisfied", report.Evaluate.satisfied_fraction);
    ("seconds", seconds) ]

let measure ?(label = "measure") inst algorithm =
  let sol, seconds = Obs.timed label algorithm in
  measure_precomputed inst sol ~seconds

let feasible_demands ~rng ?(distinct = false) ?(max_tries = 60) ~count ~amount g =
  let draw () =
    if distinct then
      Demand_gen.distinct_endpoint_pairs ~rng ~count ~amount g
    else Demand_gen.far_pairs ~rng ~count ~amount g
  in
  let routable demands =
    match
      Netrec_flow.Oracle.routable ~cap:(Graph.capacity g) g demands
    with
    | Netrec_flow.Oracle.Routable _ -> true
    | Netrec_flow.Oracle.Unroutable | Netrec_flow.Oracle.Unknown -> false
  in
  let rec attempt n =
    if n = 0 then
      failwith "Common.feasible_demands: no feasible demand set found"
    else begin
      let demands = draw () in
      if List.length demands = count && routable demands then demands
      else attempt (n - 1)
    end
  in
  attempt max_tries

let complete_instance ~rng ?distinct ~count ~amount g =
  let demands = feasible_demands ~rng ?distinct ~count ~amount g in
  Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()

let scale_demands demands amount =
  List.map (fun d -> { d with Commodity.amount }) demands

let scalable_demands ~rng ?max_tries ~count ~max_amount g =
  let at_max = feasible_demands ~rng ?max_tries ~count ~amount:max_amount g in
  scale_demands at_max 1.0

let percent f = 100.0 *. f

(* ---- experiment cell fan-out ---- *)

module Pool = Netrec_parallel.Pool

exception Interrupted

(* One process-wide flag: signal handlers may only do an atomic store,
   so the stop request is a flag checked between cells, never an unwind
   from handler context. *)
let stop_flag = Atomic.make false

let request_stop () = Atomic.set stop_flag true
let stop_requested () = Atomic.get stop_flag
let reset_stop () = Atomic.set stop_flag false

type job = {
  point : string;
  run : int;
  cells : unit -> Journal.cells;
}

let run_jobs ?journal ?pool jobs =
  let arr = Array.of_list jobs in
  let n = Array.length arr in
  let out = Array.make n [] in
  let use_pool =
    match pool with Some p when Pool.jobs p > 1 -> Some p | _ -> None
  in
  (match use_pool with
  | None ->
    Array.iteri
      (fun i j ->
        if stop_requested () then raise Interrupted;
        out.(i) <- Journal.with_run journal ~point:j.point ~run:j.run j.cells)
      arr
  | Some p ->
    (* Replay pairs the journal already completed, collect the rest.
       Pending cells are computed on the pool but consumed — and hence
       journalled — in job order, so the journal bytes are identical to
       a sequential run's. *)
    let pending = ref [] in
    Array.iteri
      (fun i j ->
        let done_already =
          match journal with
          | Some jr -> Journal.completed jr ~point:j.point ~run:j.run <> None
          | None -> false
        in
        if done_already then
          out.(i) <- Journal.with_run journal ~point:j.point ~run:j.run j.cells
        else pending := i :: !pending)
      arr;
    let pending = Array.of_list (List.rev !pending) in
    Pool.iter_ordered p
      ~f:(fun _ i ->
        if stop_requested () then raise Interrupted;
        arr.(i).cells ())
      ~consume:(fun k cells ->
        let i = pending.(k) in
        out.(i) <-
          Journal.with_run journal ~point:arr.(i).point ~run:arr.(i).run
            (fun () -> cells))
      pending);
  Array.to_list out

let run_indices runs =
  if runs < 1 then invalid_arg "Common.run_indices: runs must be >= 1";
  List.init runs (fun r -> r + 1)

(* Hashtbl.find_all returns the latest binding first, so run lists are
   latest job first: the order the committed tables' means are summed
   in. *)
let sweep ?journal ?pool jobs =
  let acc = Hashtbl.create 64 in
  List.iter2
    (fun (x, _) cells ->
      List.iter (fun (alg, fields) -> Hashtbl.add acc (x, alg) fields) cells)
    jobs
    (run_jobs ?journal ?pool (List.map snd jobs));
  fun x alg -> Hashtbl.find_all acc (x, alg)

let mean runs key =
  match
    List.filter_map
      (fun fields ->
        match List.assoc_opt key fields with
        | Some x when not (Float.is_nan x) -> Some x
        | _ -> None)
      runs
  with
  | [] -> nan
  | xs -> Netrec_util.Stats.mean xs

let best_incumbent inst sol =
  let pruned = H.Postpass.prune inst sol in
  let candidates =
    match H.Mcf_heuristic.solve inst with
    | Some r -> [ pruned; r.H.Mcf_heuristic.mcb ]
    | None -> [ pruned ]
  in
  let fully_served s =
    Num.geq ~eps:Num.feas_eps (Netrec_core.Evaluate.satisfied_fraction inst s) 1.0
  in
  match
    List.filter fully_served candidates
    |> List.sort (fun a b ->
           compare (Instance.repair_cost inst a) (Instance.repair_cost inst b))
  with
  | best :: _ -> best
  | [] -> pruned

(* ---- Figs. 4-6: the five-way comparison ---- *)

let comparison_cells ~fig ~opt_nodes inst =
  let (isp_sol, _), isp_secs =
    Obs.timed (fig ^ ".isp") (fun () -> Netrec_core.Isp.solve inst)
  in
  let isp = measure_precomputed inst isp_sol ~seconds:isp_secs in
  let timed name solve = measure ~label:(fig ^ "." ^ name) inst solve in
  let srt = timed "srt" (fun () -> H.Srt.solve inst) in
  let gcom = timed "grd_com" (fun () -> H.Greedy.grd_com inst) in
  let gnc = timed "grd_nc" (fun () -> H.Greedy.grd_nc inst) in
  let warm = best_incumbent inst isp_sol in
  let opt = H.Opt.solve ~node_limit:opt_nodes ~incumbent:warm inst in
  let optm =
    measure_precomputed inst opt.H.Opt.solution ~seconds:opt.H.Opt.wall_seconds
  in
  [ ("ISP", isp); ("SRT", srt); ("GRD-COM", gcom); ("GRD-NC", gnc);
    ("OPT", optm) ]

let comparison_tables ~column ~repairs ~satisfied runs points =
  let series = [ "ISP"; "OPT"; "SRT"; "GRD-COM"; "GRD-NC" ] in
  let table title series row =
    let t = Table.create ~title ~columns:(column :: series) in
    List.iter (fun x -> Table.add_float_row ~decimals:1 t (x :: row x)) points;
    t
  in
  let repair_tables =
    List.map
      (fun (title, key, all) ->
        table title (series @ [ "ALL" ]) (fun x ->
            List.map (fun alg -> mean (runs x alg) key) series @ [ all x ]))
      repairs
  in
  let served = [ "SRT"; "GRD-COM"; "ISP" ] in
  repair_tables
  @ [ table satisfied served (fun x ->
          List.map (fun alg -> percent (mean (runs x alg) "satisfied")) served)
    ]
