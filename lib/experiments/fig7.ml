module Table = Netrec_util.Table
module Rng = Netrec_util.Rng
module Obs = Netrec_obs.Obs
module Instance = Netrec_core.Instance
module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
module H = Netrec_heuristics
open Common

let connected_er ~rng ~p =
  let rec attempt n =
    if n = 0 then failwith "Fig7: could not generate a connected G(100,p)"
    else begin
      let g =
        Generate.erdos_renyi ~rng:(Rng.split rng) ~n:100 ~p ~capacity:1000.0
      in
      if Traverse.is_connected g then g else attempt (n - 1)
    end
  in
  attempt 50

let ps = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let run ?journal ?pool ?(runs = 3) () =
  let master = Rng.create 7 in
  let time_t =
    Table.create ~title:"Fig 7(a): Erdos-Renyi n=100, execution time (seconds) vs edge probability"
      ~columns:[ "p"; "ISP"; "SRT"; "OPT(exact-DP)"; "OPT(MILP root LP)" ]
  in
  let rep_t =
    Table.create ~title:"Fig 7(b): Erdos-Renyi n=100, total repairs vs edge probability (5 unit pairs)"
      ~columns:[ "p"; "ISP"; "OPT"; "SRT" ]
  in
  (* Rng-consuming generation happens while the jobs are built, in the
     (p, run) sweep order; the job closures are rng-free. *)
  let jobs =
    List.concat_map
      (fun p ->
        List.map
          (fun r ->
            let rng = Rng.split master in
            let g = connected_er ~rng ~p in
            let demands =
              feasible_demands ~rng ~distinct:true ~count:5 ~amount:1.0 g
            in
            let inst =
              Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()
            in
            let pairs =
              List.map (fun d -> (d.Commodity.src, d.Commodity.dst)) demands
            in
            ( p,
              { point = Printf.sprintf "fig7:p=%g" p;
                run = r;
                cells =
                  (fun () ->
                    let isp =
                      measure ~label:"fig7.isp" inst (fun () ->
                          fst (Netrec_core.Isp.solve inst))
                    in
                    let srt =
                      measure ~label:"fig7.srt" inst (fun () ->
                          H.Srt.solve inst)
                    in
                    let forest, forest_secs =
                      Obs.timed "fig7.exact_forest" (fun () ->
                          H.Exact_forest.optimal_total_repairs g ~pairs)
                    in
                    let forest_fields =
                      ("seconds", forest_secs)
                      ::
                      (match forest with
                      | Some repairs ->
                        [ ("repairs_total", float_of_int repairs) ]
                      | None -> [])
                    in
                    [ ("ISP", isp); ("SRT", srt); ("FOREST", forest_fields) ])
              } ))
          (run_indices runs))
      ps
  in
  let runs = sweep ?journal ?pool jobs in
  List.iter
    (fun p ->
      let mean alg key = mean (runs p alg) key in
      (* The MILP column is a fixed note: with the earlier dense simplex
         the root LP alone took over 10 minutes at this size, and it has
         not been re-measured since (the paper's Gurobi runs reached ~27
         hours at p=0.9). *)
      Table.add_row time_t
        [ Printf.sprintf "%.1f" p;
          Printf.sprintf "%.3f" (mean "ISP" "seconds");
          Printf.sprintf "%.3f" (mean "SRT" "seconds");
          Printf.sprintf "%.3f" (mean "FOREST" "seconds");
          "n/a (>600s here; paper ~1e5 s)" ];
      Table.add_float_row ~decimals:1 rep_t
        [ p; mean "ISP" "repairs_total"; mean "FOREST" "repairs_total";
          mean "SRT" "repairs_total" ])
    ps;
  [ time_t; rep_t ]
