module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Failure = Netrec_disrupt.Failure
module Models = Netrec_disrupt.Models
open Common

let variances = [ 10.0; 30.0; 50.0; 70.0; 90.0; 110.0; 130.0; 150.0 ]

let run ?journal ?pool ?(runs = 3) ?(opt_nodes = 250) () =
  let g = Netrec_topo.Bell_canada.graph () in
  let master = Rng.create 6 in
  (* Destroyed elements per (variance, run), for the ALL column. *)
  let destroyed = Hashtbl.create 8 in
  (* The demand pairs are fixed per run; the disruption grows with the
     variance along the sweep (§VII-A3).  Every rng draw happens here,
     while the jobs are BUILT, in the sequential sweep order; the job
     closures are rng-free, so a resumed or pool-parallel evaluation
     replays the same failures. *)
  let jobs =
    List.concat_map
      (fun r ->
        let rng = Rng.split master in
        let demands = feasible_demands ~rng ~count:4 ~amount:10.0 g in
        List.map
          (fun variance ->
            let failure = Models.gaussian ~rng ~variance g in
            let inst = Instance.make ~graph:g ~demands ~failure () in
            let bv, be = Failure.counts failure in
            Hashtbl.add destroyed variance (float_of_int (bv + be));
            ( variance,
              { point = Printf.sprintf "fig6:variance=%g" variance;
                run = r;
                cells = (fun () -> comparison_cells ~fig:"fig6" ~opt_nodes inst)
              } ))
          variances)
      (run_indices runs)
  in
  comparison_tables ~column:"variance"
    ~repairs:
      [ ( "Fig 6(a): Bell-Canada, total repairs vs variance of Gaussian disruption (4 pairs, 10 units)",
          "repairs_total",
          fun v -> Netrec_util.Stats.mean (Hashtbl.find_all destroyed v) ) ]
    ~satisfied:
      "Fig 6(b): Bell-Canada, % satisfied demand vs variance of Gaussian disruption"
    (sweep ?journal ?pool jobs)
    variances
