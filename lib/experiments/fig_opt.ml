module Table = Netrec_util.Table
module Rng = Netrec_util.Rng
module Obs = Netrec_obs.Obs
module Instance = Netrec_core.Instance
module Failure = Netrec_disrupt.Failure
module Models = Netrec_disrupt.Models
module H = Netrec_heuristics
open Common

let variances = [ 80.0; 100.0; 120.0; 140.0 ]

(* Mid-size Gaussian scenarios: 5 demand pairs at 10 units keep the
   exact model inside [var_budget] while the larger broken sets push the
   plain branch-and-bound past the node budget — the regime where the
   accelerations decide between "budget exhausted" and "proved". *)
let instance ~rng ~variance g =
  let demands = feasible_demands ~rng ~count:5 ~amount:10.0 g in
  let failure = Models.gaussian ~rng ~variance g in
  Instance.make ~graph:g ~demands ~failure ()

let run ?journal ?pool ?(runs = 3) ?(opt_nodes = 600) () =
  let g = Netrec_topo.Bell_canada.graph () in
  let master = Rng.create 5 in
  let rate_t =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig OPT(a): Bell-Canada Gaussian mid-size, proved rate and \
            search effort at %d nodes (base: presolve/cuts off, Dantzig; \
            full: presolve + cuts + DSE)"
           opt_nodes)
      ~columns:
        [ "variance"; "base proved %"; "full proved %"; "base nodes";
          "full nodes"; "flips" ]
  in
  let gap_t =
    Table.create
      ~title:
        "Fig OPT(b): Bell-Canada Gaussian mid-size, bound gap and time to \
         bound (cost units / seconds, averaged over runs)"
      ~columns:
        [ "variance"; "base gap"; "full gap"; "base s"; "full s" ]
  in
  (* All randomness is consumed while the jobs are BUILT (sequentially,
     in sweep order); the closures are rng-free so journal resume and
     pool evaluation replay identical scenarios. *)
  let jobs =
    List.concat_map
      (fun r ->
        let rng = Rng.split master in
        List.map
          (fun variance ->
            let inst = instance ~rng ~variance g in
            ( variance,
              { point = Printf.sprintf "fig-opt:variance=%g" variance;
                run = r;
                cells =
                  (fun () ->
                    let solve name knobs =
                      Obs.span ("fig_opt." ^ name) @@ fun () -> knobs ()
                    in
                    let base =
                      solve "base" (fun () ->
                          H.Opt.solve ~node_limit:opt_nodes ~presolve:false
                            ~cuts:false ~pricing:Netrec_lp.Tuning.Dantzig
                            inst)
                    in
                    let full =
                      solve "full" (fun () ->
                          H.Opt.solve ~node_limit:opt_nodes inst)
                    in
                    let gap (r : H.Opt.result) =
                      Float.max 0.0 (r.H.Opt.objective -. r.H.Opt.bound)
                    in
                    let fields (r : H.Opt.result) =
                      [ ("proved", if r.H.Opt.proved then 1.0 else 0.0);
                        ("nodes", float_of_int r.H.Opt.nodes);
                        ("gap", gap r);
                        ("seconds", r.H.Opt.wall_seconds) ]
                    in
                    [ ("base", fields base); ("full", fields full) ]) } ))
          variances)
      (run_indices runs)
  in
  let runs = sweep ?journal ?pool jobs in
  List.iter
    (fun variance ->
      let base k = mean (runs variance "base") k in
      let full k = mean (runs variance "full") k in
      let proved fields = List.assoc "proved" fields > 0.5 in
      let flips =
        List.fold_left2
          (fun s b f -> if (not (proved b)) && proved f then s + 1 else s)
          0 (runs variance "base") (runs variance "full")
      in
      Table.add_float_row ~decimals:1 rate_t
        [ variance; percent (base "proved"); percent (full "proved");
          base "nodes"; full "nodes"; float_of_int flips ];
      Table.add_float_row ~decimals:2 gap_t
        [ variance; base "gap"; full "gap"; base "seconds";
          full "seconds" ])
    variances;
  [ rate_t; gap_t ]
