open Netrec_core
open Netrec_graph
module Rng = Netrec_util.Rng
module Check = Netrec_check.Check
module Commodity = Netrec_flow.Commodity
module Pool = Netrec_parallel.Pool
module Shard = Netrec_shard.Shard
module Synth = Netrec_topo.Synth
module Models = Netrec_disrupt.Models
module Failure = Netrec_disrupt.Failure
module Fig9_xl = Netrec_experiments.Fig9_xl

(* The pinned xl smoke scenario: a 5000-vertex scale-free topology with a
   local Gaussian disaster calibrated to take the sharded path. *)
let smoke = lazy (Fig9_xl.smoke_scenario ())

(* ---- sharded path ---- *)

let test_sharded_certified () =
  let inst = Lazy.force smoke in
  let sol, stats = Shard.solve inst in
  Alcotest.(check bool) "took the sharded path" false stats.Shard.delegated;
  Alcotest.(check bool) "several shards" true (stats.Shard.shards >= 2);
  Alcotest.(check bool) "region is a small fraction" true
    (stats.Shard.region_vertices * 4 < Graph.nv inst.Instance.graph);
  Alcotest.(check bool) "demands were cut" true (stats.Shard.cut_demands > 0);
  Alcotest.(check int) "zero violations" 0
    (List.length stats.Shard.certificate.Check.violations);
  let cert = Check.certify inst sol in
  if not (Check.ok cert) then
    Alcotest.failf "stitched solution failed recertification: %s"
      (Check.certificate_to_string cert)

let test_pool_determinism () =
  let inst = Lazy.force smoke in
  let solve jobs = fst (Shard.solve ~pool:(Pool.create ~jobs) inst) in
  let s1 = solve 1 and s4 = solve 4 in
  Alcotest.(check (list int)) "repaired vertices" s1.Instance.repaired_vertices
    s4.Instance.repaired_vertices;
  Alcotest.(check (list int)) "repaired edges" s1.Instance.repaired_edges
    s4.Instance.repaired_edges;
  Alcotest.(check bool) "whole solution byte-identical" true (s1 = s4)

(* ---- delegation ---- *)

(* Complete destruction makes the region the whole graph, so the solver
   must delegate — and match plain ISP byte for byte. *)
let test_delegation_matches_isp () =
  let g =
    match Synth.of_string "sf:n=60,m=2,seed=5" with
    | Ok g -> g
    | Error e -> Alcotest.failf "synth: %s" e
  in
  let rng = Rng.create 2 in
  let demands = Netrec_topo.Demand_gen.far_pairs ~rng ~count:4 ~amount:5.0 g in
  let inst = Instance.make ~graph:g ~demands ~failure:(Failure.complete g) () in
  let sol, stats = Shard.solve inst in
  Alcotest.(check bool) "delegated" true stats.Shard.delegated;
  let ref_sol, _ = Isp.solve inst in
  Alcotest.(check (list int)) "same vertex repairs"
    ref_sol.Instance.repaired_vertices sol.Instance.repaired_vertices;
  Alcotest.(check (list int)) "same edge repairs"
    ref_sol.Instance.repaired_edges sol.Instance.repaired_edges;
  Alcotest.(check (float 1e-9)) "same cost"
    (Instance.repair_cost inst ref_sol)
    (Instance.repair_cost inst sol);
  Alcotest.(check bool) "certified" true (Check.ok stats.Shard.certificate)

(* ---- cached centrality vs fresh compute (the staleness contract) ----

   The fixup pass drives Centrality.Cache exactly as ISP's loop does:
   note_worse when residual capacity shrinks along a chosen path,
   note_improved after a repair.  The cache contract says a cached
   compute must stay bit-identical to a from-scratch one as long as every
   metric change is reported — exercise it with random fixup-style
   mutation sequences. *)

let cache_fixture () =
  Graph.make ~n:8
    ~edges:
      [ (0, 1, 10.0); (1, 2, 10.0); (2, 3, 10.0); (0, 4, 8.0); (4, 5, 8.0);
        (5, 3, 8.0); (1, 5, 4.0); (2, 6, 6.0); (6, 7, 6.0); (3, 7, 6.0) ]
    ()

let prop_cache_matches_fresh =
  QCheck.Test.make ~count:40 ~name:"cached centrality matches fresh compute"
    QCheck.(small_list (pair bool (int_bound 9)))
    (fun steps ->
      let g = cache_fixture () in
      let demands =
        [ Commodity.make ~src:0 ~dst:3 ~amount:7.0;
          Commodity.make ~src:4 ~dst:7 ~amount:3.0;
          Commodity.make ~src:1 ~dst:6 ~amount:2.0 ]
      in
      let caps = Array.init (Graph.ne g) (Graph.capacity g) in
      let lens = Array.make (Graph.ne g) 1.0 in
      let cache = Centrality.Cache.create () in
      List.for_all
        (fun (worse, e) ->
          let e = e mod Graph.ne g in
          (if worse then (
             (* a committed prune: residual shrinks, length grows *)
             caps.(e) <- caps.(e) /. 2.0;
             lens.(e) <- lens.(e) +. 0.25;
             Centrality.Cache.note_worse cache e)
           else (
             (* a repair: some length drops somewhere *)
             lens.(e) <- Float.max 0.5 (lens.(e) -. 0.25);
             Centrality.Cache.note_improved cache (fst (Graph.endpoints g e))));
          let length i = lens.(i) and cap i = caps.(i) in
          let cached = Centrality.compute ~cache ~length ~cap g demands in
          let fresh = Centrality.compute ~length ~cap g demands in
          cached.Centrality.score = fresh.Centrality.score)
        steps)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netrec_shard"
    [ ( "shard",
        [ tc "smoke scenario certified" test_sharded_certified;
          tc "-j1 = -j4" test_pool_determinism;
          tc "delegation matches isp" test_delegation_matches_isp;
          QCheck_alcotest.to_alcotest prop_cache_matches_fresh ] ) ]
