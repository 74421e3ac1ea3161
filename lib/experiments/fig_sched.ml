module Table = Netrec_util.Table
module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Commodity = Netrec_flow.Commodity
module Failure = Netrec_disrupt.Failure
module Sched = Netrec_sched.Sched
open Common

(* The pinned scheduling smoke scenario behind the sched_gate block
   (Gates) and the fig-sched curve table: two parallel corridors
   between the demand endpoints, everything broken except the
   endpoints.  Small enough
   that the MILP oracle proves optimality in milliseconds, rich enough
   that order matters (the short corridor must be restored first). *)
let smoke_scenario () =
  let g =
    Graph.make ~n:5
      ~edges:
        [ (0, 1, 10.0); (1, 2, 10.0); (0, 3, 10.0); (3, 4, 10.0); (4, 2, 10.0) ]
      ()
  in
  Instance.make ~graph:g
    ~demands:[ Commodity.make ~src:0 ~dst:2 ~amount:8.0 ]
    ~failure:(Failure.of_lists g ~vertices:[ 1; 3; 4 ] ~edges:[ 0; 1; 2; 3; 4 ])
    ()

(* The smoke order is deliberately adversarial (long corridor first):
   arbitrary scheduling earns a visibly worse curve than greedy, and
   greedy + local search must close the gap to the proved optimum. *)
let smoke_elements () =
  [ `Vertex 3; `Vertex 4; `Edge 2; `Edge 3; `Edge 4; `Vertex 1; `Edge 0;
    `Edge 1 ]

let smoke_crews = 3

(* One seeded regret scenario: a spine 0-1-...-(n-1) with random chords,
   one demand across the whole spine, the middle vertex always destroyed
   (so the instance is never trivially healthy) plus random interior
   vertex and edge damage.  Small on purpose — every draw must stay
   within the oracle's exact range. *)
let scenario ~n ~seed () =
  if n < 4 then invalid_arg "fig-sched scenario: n < 4";
  let rng = Rng.create seed in
  let spine =
    List.init (n - 1) (fun i -> (i, i + 1, 5.0 +. Rng.float rng 5.0))
  in
  let chords =
    List.filter_map
      (fun i ->
        if Rng.bool rng && i + 2 < n then
          Some (i, i + 2, 5.0 +. Rng.float rng 5.0)
        else None)
      (List.init n Fun.id)
  in
  let g = Graph.make ~n ~edges:(spine @ chords) () in
  let dst = n - 1 in
  let demands = [ Commodity.make ~src:0 ~dst ~amount:(2.0 +. Rng.float rng 4.0) ] in
  let vertices =
    List.filter
      (fun v -> v = n / 2 || (v <> 0 && v <> dst && Rng.bool rng))
      (List.init n Fun.id)
  in
  let edges =
    List.filter (fun _ -> Rng.bool rng) (List.init (Graph.ne g) Fun.id)
  in
  Instance.make ~graph:g ~demands ~failure:(Failure.of_lists g ~vertices ~edges)
    ()

let broken_elements inst =
  let sol = Instance.repair_all inst in
  List.map (fun v -> `Vertex v) sol.Instance.repaired_vertices
  @ List.map (fun e -> `Edge e) sol.Instance.repaired_edges

let sizes = [ 5; 6; 7 ]
let crews = 2

(* The four schedulers of the regret table on one instance: the repair
   set's own order, the greedy scheduler, greedy refined by local
   search, and the MILP oracle.  Returns journal fields only (floats),
   so cells replay from a journal byte-identically. *)
let cell_fields inst =
  let els = broken_elements inst in
  let cap = Sched.capacity ~crews () in
  let (fields : (string * float) list), seconds =
    Netrec_obs.Obs.timed "fig_sched.cell" (fun () ->
        let arb =
          match Sched.of_order ~cap inst els with
          | Ok p -> p
          | Error e ->
            failwith ("fig-sched: " ^ Netrec_core.Schedule.order_error_to_string e)
        in
        let greedy = Sched.greedy ~cap inst (Instance.repair_all inst) in
        let refined, _ = Sched.local_search ~cap inst (Sched.order_of greedy) in
        let opt_auc, proved, nodes, regret =
          match Sched.oracle ~cap inst els with
          | Ok r ->
            ( r.Sched.plan.Sched.auc,
              (if r.Sched.proved then 1.0 else 0.0),
              float_of_int r.Sched.nodes,
              Sched.regret ~oracle:r.Sched.plan refined )
          | Error (Sched.Too_big _) -> (nan, 0.0, 0.0, nan)
          | Error (Sched.Malformed e) ->
            failwith
              ("fig-sched oracle: " ^ Netrec_core.Schedule.order_error_to_string e)
          | Error (Sched.No_incumbent _) ->
            failwith "fig-sched oracle: no incumbent on a tiny instance"
        in
        [ ("k", float_of_int (List.length els));
          ("rounds", float_of_int (List.length greedy.Sched.rounds));
          ("arb", arb.Sched.auc);
          ("greedy", greedy.Sched.auc);
          ("ls", refined.Sched.auc);
          ("opt", opt_auc);
          ("regret", regret);
          ("proved", proved);
          ("nodes", nodes) ])
  in
  fields @ [ ("seconds", seconds) ]

(* The per-round recovery curves of the pinned smoke scenario: exact,
   seed-free, and the series behind results/fig_sched_2.csv (plotted by
   scripts/plot_results.gp as the capacity-constrained recovery curve). *)
let curve_table () =
  let inst = smoke_scenario () in
  let cap = Sched.capacity ~crews:smoke_crews () in
  let sats plan = List.map (fun r -> r.Sched.satisfied) plan.Sched.rounds in
  let arb =
    match Sched.of_order ~cap inst (smoke_elements ()) with
    | Ok p -> p
    | Error _ -> failwith "fig-sched: smoke order rejected"
  in
  let greedy = Sched.greedy ~cap inst (Instance.repair_all inst) in
  let refined, _ = Sched.local_search ~cap inst (Sched.order_of greedy) in
  let opt =
    match Sched.oracle ~cap inst (smoke_elements ()) with
    | Ok r -> r.Sched.plan
    | Error _ -> failwith "fig-sched: oracle refused the smoke scenario"
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig sched (curve): satisfied demand per round, pinned smoke \
            scenario (%d crews)"
           smoke_crews)
      ~columns:[ "round"; "arbitrary"; "greedy"; "local-search"; "oracle" ]
  in
  let rows =
    List.map2
      (fun (a, g) (l, o) -> (a, g, l, o))
      (List.combine (sats arb) (sats greedy))
      (List.combine (sats refined) (sats opt))
  in
  List.iteri
    (fun i (a, g, l, o) ->
      Table.add_float_row ~decimals:3 t
        [ float_of_int (i + 1); percent a; percent g; percent l; percent o ])
    rows;
  t

let run ?journal ?pool ?(runs = 3) () =
  let master = Rng.create 17 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig sched: schedule AUC vs the MILP oracle (%d crews; arbitrary \
            order, greedy, greedy+local search)"
           crews)
      ~columns:
        [ "n"; "k"; "rounds"; "arb"; "greedy"; "ls"; "opt"; "regret%";
          "proved"; "seconds" ]
  in
  (* Seeds are consumed while the jobs are built, in (size, run) sweep
     order; the cells themselves are rng-free (resume/pool contract). *)
  let jobs =
    List.concat_map
      (fun n ->
        List.map
          (fun r ->
            let inst_seed = Rng.int (Rng.split master) 1_000_000 in
            let inst = scenario ~n ~seed:inst_seed () in
            ( n,
              { point = Printf.sprintf "fig-sched:n=%d" n;
                run = r;
                cells = (fun () -> [ ("SCHED", cell_fields inst) ]) } ))
          (run_indices runs))
      sizes
  in
  let runs = sweep ?journal ?pool jobs in
  List.iter
    (fun n ->
      let mean key = mean (runs n "SCHED") key in
      Table.add_float_row ~decimals:3 t
        [ float_of_int n; mean "k"; mean "rounds"; mean "arb"; mean "greedy";
          mean "ls"; mean "opt"; 100.0 *. mean "regret"; mean "proved";
          mean "seconds" ])
    sizes;
  [ t; curve_table () ]
