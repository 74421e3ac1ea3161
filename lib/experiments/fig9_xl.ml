module Table = Netrec_util.Table
module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Commodity = Netrec_flow.Commodity
module Shard = Netrec_shard.Shard
module Check = Netrec_check.Check
open Common

(* One xl disaster scenario: a seeded scale-free topology, a Gaussian
   disaster centred on a vertex (synthetic coordinates cluster around
   hubs, so the coordinate barycenter usually falls in empty space —
   disasters hit populated places), and demand pairs drawn near the
   epicenter, where the damage is.  [vmult] scales the Gaussian variance
   as vmult/n: vertex density in the unit square grows linearly with n,
   so this keeps the expected {e number} of destroyed elements roughly
   constant across sizes — the 100x claim is about graph scale, not
   disaster scale. *)
let scenario ~n ?(m = 2) ?(vmult = 1.0) ?(pairs = 40) ?(amount = 5.0)
    ~topo_seed ~fail_seed ~demand_seed () =
  let g =
    match
      Netrec_topo.Synth.of_string
        (Printf.sprintf "sf:n=%d,m=%d,seed=%d" n m topo_seed)
    with
    | Ok g -> g
    | Error msg -> failwith ("fig9-xl scenario: " ^ msg)
  in
  let epicenter =
    match Graph.coord g (n / 2) with
    | Some c -> c
    | None -> failwith "fig9-xl scenario: synthetic graph lacks coordinates"
  in
  let variance = vmult /. float_of_int n in
  let failure =
    Netrec_disrupt.Models.gaussian ~rng:(Rng.create fail_seed) ~epicenter
      ~variance g
  in
  let ex, ey = epicenter in
  let dist2 v =
    match Graph.coord g v with
    | Some (x, y) -> ((x -. ex) ** 2.0) +. ((y -. ey) ** 2.0)
    | None -> infinity
  in
  (* Demand endpoints within 4 sigma of the epicenter, broken or not:
     recovery serves the disaster area, and endpoints must be allowed to
     be casualties or nothing ever needs repair. *)
  let near =
    Array.of_list
      (List.filter (fun v -> dist2 v < 16.0 *. variance) (Graph.vertices g))
  in
  if Array.length near < 2 then
    failwith "fig9-xl scenario: disaster area has fewer than two vertices";
  let rng = Rng.create demand_seed in
  let demands =
    List.init pairs (fun _ ->
        let rec pick () =
          let a = near.(Rng.int rng (Array.length near)) in
          let b = near.(Rng.int rng (Array.length near)) in
          if a = b then pick () else (a, b)
        in
        let a, b = pick () in
        Commodity.make ~src:a ~dst:b ~amount)
  in
  Instance.make ~graph:g ~demands ~failure ()

(* The pinned 5k smoke scenario behind the xl_gate block (Gates): small
   enough for CI, damaged enough to split into several shards. *)
let smoke_scenario () =
  scenario ~n:5_000 ~vmult:0.3 ~pairs:24 ~topo_seed:42 ~fail_seed:7
    ~demand_seed:13 ()

(* At most two runs per size, and a 1-run (quick) sweep skips the
   middle size: the sweeps behind the committed fig9-xl numbers. *)
let run ?journal ?pool ~runs () =
  let sizes =
    if runs = 1 then [ 20_000; 100_000 ] else [ 20_000; 50_000; 100_000 ]
  in
  let runs = min 2 runs in
  let master = Rng.create 11 in
  let t =
    Table.create
      ~title:
        "Fig 9-xl: scale-free topology, sharded ISP vs graph size (Gaussian \
         disaster, demand pairs near the epicenter)"
      ~columns:
        [ "n"; "region"; "shards"; "cut"; "fixup"; "repairs"; "%sat";
          "cert"; "seconds" ]
  in
  (* Seeds are consumed while the jobs are built, in (size, run) sweep
     order; the cells themselves are rng-free (resume/pool contract). *)
  let jobs =
    List.concat_map
      (fun n ->
        List.map
          (fun r ->
            let fail_seed = Rng.int (Rng.split master) 1_000_000 in
            let demand_seed = Rng.int (Rng.split master) 1_000_000 in
            (* vmult 0.5: across fail seeds, 1.0 occasionally breaks a
               hub whose halo swallows thousands of vertices into one
               shard — ISP is superlinear in shard size, so those cells
               dominate the sweep's wall clock without adding signal. *)
            let inst =
              scenario ~n ~vmult:0.5 ~topo_seed:42 ~fail_seed ~demand_seed ()
            in
            ( n,
              { point = Printf.sprintf "fig9-xl:n=%d" n;
                run = r;
                cells =
                  (fun () ->
                    let (sol, st), seconds =
                      Netrec_obs.Obs.timed "fig9_xl.shard" (fun () ->
                          Shard.solve inst)
                    in
                    [ ( "XL",
                        measure_precomputed inst sol ~seconds
                        @ [ ("region", float_of_int st.Shard.region_vertices);
                            ("shards", float_of_int st.Shard.shards);
                            ("cut", float_of_int st.Shard.cut_demands);
                            ("fixup", float_of_int st.Shard.fixup_paths);
                            ( "violations",
                              float_of_int
                                (List.length
                                   st.Shard.certificate.Check.violations) )
                          ] ) ]) } ))
          (run_indices runs))
      sizes
  in
  let runs = sweep ?journal ?pool jobs in
  List.iter
    (fun n ->
      let mean key = mean (runs n "XL") key in
      Table.add_float_row ~decimals:2 t
        [ float_of_int n; mean "region"; mean "shards"; mean "cut";
          mean "fixup"; mean "repairs_total"; percent (mean "satisfied");
          (if mean "violations" = 0.0 then 1.0 else 0.0); mean "seconds" ])
    sizes;
  [ t ]
