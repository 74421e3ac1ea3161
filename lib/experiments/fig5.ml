module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Failure = Netrec_disrupt.Failure
open Common

let amounts = [ 2.0; 4.0; 6.0; 8.0; 10.0; 12.0; 14.0; 16.0; 18.0 ]

let run ?journal ?pool ?(runs = 3) ?(opt_nodes = 250) () =
  let g = Netrec_topo.Bell_canada.graph () in
  let master = Rng.create 5 in
  let all_v, all_e = Failure.counts (Failure.complete g) in
  (* One demand-pair set per run, feasible at the top of the sweep, then
     scaled across it — the paper "fixes the number of demand pairs to 4
     and varies the intensity of demand per pair" (§VII-A2).
     Rng-consuming generation happens while the jobs are built, in sweep
     order; the job closures are rng-free. *)
  let jobs =
    List.concat_map
      (fun r ->
        let rng = Rng.split master in
        let base =
          scalable_demands ~rng ~count:4
            ~max_amount:(List.fold_left Float.max 0.0 amounts)
            g
        in
        List.map
          (fun amount ->
            let demands = scale_demands base amount in
            let inst =
              Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()
            in
            ( amount,
              { point = Printf.sprintf "fig5:amount=%g" amount;
                run = r;
                cells = (fun () -> comparison_cells ~fig:"fig5" ~opt_nodes inst)
              } ))
          amounts)
      (run_indices runs)
  in
  comparison_tables ~column:"demand/pair"
    ~repairs:
      [ ( "Fig 5(a): Bell-Canada, total repairs vs demand per pair (4 pairs)",
          "repairs_total", fun _ -> float_of_int (all_v + all_e) ) ]
    ~satisfied:
      "Fig 5(b): Bell-Canada, % satisfied demand vs demand per pair (4 pairs)"
    (sweep ?journal ?pool jobs)
    amounts
