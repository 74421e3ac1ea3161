module Table = Netrec_util.Table
module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Failure = Netrec_disrupt.Failure
module H = Netrec_heuristics
open Common

(* Best feasible (no demand loss) candidate by total repairs. *)
let opt_proxy inst candidates =
  let feasible sol =
    Netrec_util.Num.geq ~eps:Netrec_util.Num.feas_eps
      (Netrec_core.Evaluate.satisfied_fraction inst sol)
      1.0
  in
  List.filter feasible candidates
  |> List.sort (fun a b ->
         compare (Instance.total_repairs a) (Instance.total_repairs b))
  |> function
  | best :: _ -> Some best
  | [] -> None

let run ?journal ?pool ?(runs = 3) () =
  let g = Netrec_topo.Caida.graph () in
  let master = Rng.create 9 in
  let rep_t =
    Table.create ~title:"Fig 9(a): CAIDA-like topology, total repairs vs number of demand pairs (22 units/pair)"
      ~columns:[ "pairs"; "ISP"; "OPT(proxy)"; "SRT" ]
  in
  let sat_t =
    Table.create ~title:"Fig 9(b): CAIDA-like topology, % satisfied demand vs number of demand pairs"
      ~columns:[ "pairs"; "ISP"; "SRT" ]
  in
  let pair_counts = List.init 7 (fun p -> p + 1) in
  (* Rng-consuming generation happens while the jobs are built, in the
     (pairs, run) sweep order; the job closures are rng-free. *)
  let jobs =
    List.concat_map
      (fun pairs ->
        List.map
          (fun r ->
            let rng = Rng.split master in
            let demands =
              feasible_demands ~rng ~distinct:true ~count:pairs ~amount:22.0 g
            in
            let inst =
              Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()
            in
            ( pairs,
              { point = Printf.sprintf "fig9:pairs=%d" pairs;
                run = r;
                cells =
                  (fun () ->
                    let isp_sol, _ = Netrec_core.Isp.solve inst in
                    let isp = measure_precomputed inst isp_sol ~seconds:0.0 in
                    let srt =
                      measure ~label:"fig9.srt" inst (fun () ->
                          H.Srt.solve inst)
                    in
                    let pruned = H.Postpass.prune inst isp_sol in
                    let steiner = H.Steiner.recovery inst in
                    let opt_cells =
                      match opt_proxy inst [ pruned; steiner; isp_sol ] with
                      | Some best ->
                        [ ( "OPT",
                            [ ( "repairs_total",
                                float_of_int (Instance.total_repairs best) )
                            ] ) ]
                      | None -> []
                    in
                    [ ("ISP", isp); ("SRT", srt) ] @ opt_cells) } ))
          (run_indices runs))
      pair_counts
  in
  let runs = sweep ?journal ?pool jobs in
  List.iter
    (fun pairs ->
      let mean alg key = mean (runs pairs alg) key in
      Table.add_float_row ~decimals:1 rep_t
        [ float_of_int pairs; mean "ISP" "repairs_total";
          mean "OPT" "repairs_total"; mean "SRT" "repairs_total" ];
      Table.add_float_row ~decimals:1 sat_t
        [ float_of_int pairs;
          percent (mean "ISP" "satisfied");
          percent (mean "SRT" "satisfied") ])
    pair_counts;
  [ rep_t; sat_t ]
