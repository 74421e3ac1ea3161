module Rng = Netrec_util.Rng
open Common

let run ?journal ?pool ~runs ~opt_nodes ?(seed = 4) ?(max_pairs = 7) () =
  let g = Netrec_topo.Bell_canada.graph () in
  let master = Rng.create seed in
  let all_v, all_e =
    Netrec_disrupt.Failure.counts (Netrec_disrupt.Failure.complete g)
  in
  let pair_counts = List.init max_pairs (fun p -> p + 1) in
  (* Anything touching the rng happens while the jobs are built, in the
     (pairs, run) sweep order, so a resumed or pool-parallel evaluation
     draws the same instances as a sequential one. *)
  let jobs =
    List.concat_map
      (fun pairs ->
        List.map
          (fun r ->
            let rng = Rng.split master in
            let inst = complete_instance ~rng ~count:pairs ~amount:10.0 g in
            ( float_of_int pairs,
              { point = Printf.sprintf "fig4:pairs=%d" pairs;
                run = r;
                cells = (fun () -> comparison_cells ~fig:"fig4" ~opt_nodes inst)
              } ))
          (run_indices runs))
      pair_counts
  in
  let all n _ = float_of_int n in
  comparison_tables ~column:"pairs"
    ~repairs:
      [ ( "Fig 4(a): Bell-Canada, edge repairs vs number of demand pairs (10 units/pair)",
          "repairs_e", all all_e );
        ( "Fig 4(b): Bell-Canada, node repairs vs number of demand pairs",
          "repairs_v", all all_v );
        ( "Fig 4(c): Bell-Canada, total repairs vs number of demand pairs",
          "repairs_total", all (all_v + all_e) ) ]
    ~satisfied:
      "Fig 4(d): Bell-Canada, % satisfied demand vs number of demand pairs"
    (sweep ?journal ?pool jobs)
    (List.map float_of_int pair_counts)
