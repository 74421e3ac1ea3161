module Table = Netrec_util.Table
module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Failure = Netrec_disrupt.Failure
module H = Netrec_heuristics

let amounts = [ 2.0; 4.0; 6.0; 8.0; 10.0; 12.0; 14.0; 16.0; 18.0 ]

let run ?journal ?pool ~runs ~opt_nodes () =
  let g = Netrec_topo.Bell_canada.graph () in
  let master = Rng.create 3 in
  let table =
    Table.create ~title:"Fig 3: Bell-Canada, total repairs of multi-commodity solutions (4 pairs)"
      ~columns:[ "demand/pair"; "OPT"; "MCW"; "MCB"; "ALL" ]
  in
  (* Fixed pairs per run, intensity swept by scaling (paper §VII-A2).
     Rng-consuming generation happens while the jobs are built, in sweep
     order; the job closures are rng-free. *)
  let jobs =
    List.concat_map
      (fun r ->
        let rng = Rng.split master in
        let base =
          Common.scalable_demands ~rng ~count:4
            ~max_amount:(List.fold_left Float.max 0.0 amounts)
            g
        in
        List.map
          (fun amount ->
            let demands = Common.scale_demands base amount in
            let inst =
              Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()
            in
            let repairs sol =
              [ ("repairs_total", float_of_int (Instance.total_repairs sol)) ]
            in
            ( amount,
              { Common.point = Printf.sprintf "fig3:amount=%g" amount;
                run = r;
                cells =
                  (fun () ->
                    let mcf_cells =
                      match H.Mcf_heuristic.solve inst with
                      | Some r ->
                        [ ("MCW", repairs r.H.Mcf_heuristic.mcw);
                          ("MCB", repairs r.H.Mcf_heuristic.mcb) ]
                      | None -> []
                    in
                    let isp, _ = Netrec_core.Isp.solve inst in
                    let warm = Common.best_incumbent inst isp in
                    let opt =
                      H.Opt.solve ~node_limit:opt_nodes ~incumbent:warm inst
                    in
                    mcf_cells @ [ ("OPT", repairs opt.H.Opt.solution) ]) } ))
          amounts)
      (Common.run_indices runs)
  in
  let runs = Common.sweep ?journal ?pool jobs in
  let all_v, all_e = Failure.counts (Failure.complete g) in
  List.iter
    (fun amount ->
      let mean name = Common.mean (runs amount name) "repairs_total" in
      Table.add_float_row ~decimals:1 table
        [ amount; mean "OPT"; mean "MCW"; mean "MCB";
          float_of_int (all_v + all_e) ])
    amounts;
  [ table ]
