(* Progressive recovery: a repair plan is executed one element at a
   time — in what order should the crews work so that service comes back
   as fast as possible?

   ISP decides WHAT to repair (minimum cost); Sched.greedy then orders
   those repairs to maximize the satisfied demand after every round of
   one crew (the throughput-over-time concern of Wang, Qiao & Yu, the
   paper's reference [32]).  The example prints the recovery curve for
   the greedy order next to the solver's arbitrary emission order.

   Run with:  dune exec examples/progressive_recovery.exe *)

module G = Netrec_graph.Graph
module Rng = Netrec_util.Rng
module Failure = Netrec_disrupt.Failure
module Sched = Netrec_sched.Sched
open Netrec_core

let bar frac =
  let width = 30 in
  let full = int_of_float (frac *. float_of_int width) in
  String.make full '#' ^ String.make (width - full) '.'

let () =
  let g = Netrec_topo.Bell_canada.graph () in
  let rng = Rng.create 7 in
  let demands = Netrec_topo.Demand_gen.far_pairs ~rng ~count:3 ~amount:10.0 g in
  let failure = Netrec_disrupt.Models.gaussian ~rng ~variance:80.0 g in
  let inst = Instance.make ~graph:g ~demands ~failure () in

  let sol, _ = Isp.solve inst in
  Printf.printf "ISP plan: %d repairs for %d critical services\n\n"
    (Instance.total_repairs sol)
    (List.length demands);

  let plan = Sched.greedy inst sol in
  let name = function
    | `Vertex v -> Printf.sprintf "node %s" (G.name g v)
    | `Edge e ->
      let u, v = G.endpoints g e in
      Printf.sprintf "link %s-%s" (G.name g u) (G.name g v)
  in
  Printf.printf "Greedy execution order (satisfied demand after each step):\n";
  List.iteri
    (fun i r ->
      Printf.printf "  %2d. %-32s %s %5.1f%%\n" (i + 1)
        (String.concat ", " (List.map name r.Sched.elements))
        (bar r.Sched.satisfied)
        (100.0 *. r.Sched.satisfied))
    plan.Sched.rounds;
  Printf.printf "\narea under the recovery curve: %.3f (greedy order)\n"
    plan.Sched.auc;

  let solver_order =
    List.map (fun v -> `Vertex v) sol.Instance.repaired_vertices
    @ List.map (fun e -> `Edge e) sol.Instance.repaired_edges
  in
  match Sched.of_order inst solver_order with
  | Ok plain ->
    Printf.printf "area under the recovery curve: %.3f (solver order)\n"
      plain.Sched.auc
  | Error e -> failwith (Schedule.order_error_to_string e)
