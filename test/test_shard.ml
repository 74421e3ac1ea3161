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

(* ---- pinned outputs ----

   Which demands count as cut, their segmentation, the fixup and the
   final routing all show in the solution text and the stats.  Pinned
   here for twelve fig9-xl scenarios (topology seed 42): six at 5k
   vertices (vmult 0.3, 24 pairs) and six at 20k (vmult 0.5, 40 pairs),
   fail/demand seeds 7+i / 13+i.  The values were measured when the cut
   demands were read off a whole-graph component labelling; the
   per-demand reachability queries must agree with it. *)
let pinned =
  [ (5_000, 0, "ca78a323b2a32ed8827d8c48a0fce376", (4, 73, 9, 0));
    (5_000, 1, "d24af6a099fb1d15d56e36cad53cd4d5", (1, 77, 7, 0));
    (5_000, 2, "cb1172f58c93df0e9226ca72ec79d593", (1, 72, 11, 0));
    (5_000, 3, "a17b8dc9d1461e660d16f32c5647c875", (3, 75, 11, 0));
    (5_000, 4, "b1617a1d9fd989a5632e4882a33ca232", (2, 77, 14, 0));
    (5_000, 5, "2f63c6124536c626758f058576d1797c", (2, 83, 10, 0));
    (20_000, 0, "f64a1f3ea9cdbc7e283ecd4178203db9", (1, 1650, 13, 0));
    (20_000, 1, "ca348e2f2042d449c865a3893cd26a41", (2, 1648, 14, 0));
    (20_000, 2, "27d2bc10e16ac257c27eb0da1263f186", (2, 1728, 10, 0));
    (20_000, 3, "720adee07461b9da71c98a4037f554f9", (1, 1508, 6, 0));
    (20_000, 4, "ea5e712bfde74cd745ede2e96c8553a7", (1, 2210, 6, 0));
    (20_000, 5, "3fe216f4fea5707ff97b69c12fd1b3bf", (1, 1796, 7, 0)) ]

let test_pinned_outputs () =
  List.iter
    (fun (n, i, md5, (shards, region, cut, fixup)) ->
      let vmult, pairs = if n = 5_000 then (0.3, 24) else (0.5, 40) in
      let inst =
        Fig9_xl.scenario ~n ~vmult ~pairs ~topo_seed:42 ~fail_seed:(7 + i)
          ~demand_seed:(13 + i) ()
      in
      let sol, st = Shard.solve inst in
      let label = Printf.sprintf "n=%d i=%d" n i in
      Alcotest.(check string)
        (label ^ " solution md5") md5
        (Digest.to_hex (Digest.string (Serialize.solution_to_string sol)));
      Alcotest.(check (list int))
        (label ^ " shards, region, cut, fixup")
        [ shards; region; cut; fixup ]
        [ st.Shard.shards; st.Shard.region_vertices; st.Shard.cut_demands;
          st.Shard.fixup_paths ];
      Alcotest.(check bool) (label ^ " certified") true
        (Check.ok st.Shard.certificate))
    pinned

(* ---- a demand cut between working endpoints ----

   In every pinned scenario each cut demand has a broken endpoint, so
   the cut filter's reachability query never answers "no" for two
   working endpoints there.  This fixture takes the pinned 5k scenario
   (the smoke scenario) and also breaks every edge between BFS layers 1
   and 2 around the source of its first demand whose endpoints both
   work (3333 -> 4555, six hops apart): the 12 ring edges cut that
   demand off although both its endpoints still work.  The stitch and
   the fixup's re-check then run on it; the shard solved for the ring
   repairs it, so no fixup path is needed (0 pinned).  Solution MD5 and
   stats were measured before the shard kept its repairs in
   [Repairs]. *)
let ring_cut_scenario () =
  let inst = Lazy.force smoke in
  let g = inst.Instance.graph in
  let fail = inst.Instance.failure in
  let works v = not fail.Failure.broken_vertices.(v) in
  let h =
    List.find
      (fun h -> works h.Commodity.src && works h.Commodity.dst)
      inst.Instance.demands
  in
  let dist = Traverse.bfs_dist g h.Commodity.src in
  let ring e =
    let u, v = Graph.endpoints g e in
    (dist.(u) = 1 && dist.(v) = 2) || (dist.(u) = 2 && dist.(v) = 1)
  in
  let failure =
    { fail with
      Failure.broken_edges =
        Array.mapi (fun e b -> b || ring e) fail.Failure.broken_edges }
  in
  ( Instance.make ~vertex_cost:inst.Instance.vertex_cost
      ~edge_cost:inst.Instance.edge_cost ~graph:g
      ~demands:inst.Instance.demands ~failure (),
    h )

let test_ring_cut_demand () =
  let inst, h = ring_cut_scenario () in
  let fail = inst.Instance.failure in
  Alcotest.(check (pair int int)) "the demand" (3333, 4555)
    (h.Commodity.src, h.Commodity.dst);
  Alcotest.(check (pair bool bool)) "both endpoints work" (false, false)
    ( fail.Failure.broken_vertices.(h.Commodity.src),
      fail.Failure.broken_vertices.(h.Commodity.dst) );
  Alcotest.(check bool) "cut off before recovery" false
    (Bidir.reachable
       ~vertex_ok:(fun v -> not fail.Failure.broken_vertices.(v))
       ~edge_ok:(fun e -> not fail.Failure.broken_edges.(e))
       inst.Instance.graph h.Commodity.src h.Commodity.dst);
  let sol, st = Shard.solve inst in
  Alcotest.(check bool) "took the sharded path" false st.Shard.delegated;
  Alcotest.(check bool) "demands were cut" true (st.Shard.cut_demands >= 1);
  Alcotest.(check bool) "certified" true (Check.ok st.Shard.certificate);
  Alcotest.(check string) "solution md5" "861dd2166ef4e43c31d96191427eb3f1"
    (Digest.to_hex (Digest.string (Serialize.solution_to_string sol)));
  Alcotest.(check (list int)) "shards, region, cut, fixup" [ 3; 133; 13; 0 ]
    [ st.Shard.shards; st.Shard.region_vertices; st.Shard.cut_demands;
      st.Shard.fixup_paths ]

(* ---- the fixup loop ----

   No generated scenario leaves a stitched demand disconnected, so the
   loop is driven directly.  Every edge has capacity 10 and every element
   costs 1. *)

let fixup_instance ~n ~edges ~broken demands =
  let g = Graph.make ~n ~edges:(List.map (fun (u, v) -> (u, v, 10.0)) edges) () in
  let failure = Failure.none g in
  List.iter (fun v -> failure.Failure.broken_vertices.(v) <- true) broken;
  let demands =
    List.map (fun (src, dst, amount) -> Commodity.make ~src ~dst ~amount) demands
  in
  Instance.make ~graph:g ~demands ~failure ()

let run_fixup inst =
  let rep = Repairs.create inst in
  let fixups =
    Shard.fixup inst ~candidates:inst.Instance.demands rep
  in
  let connected h =
    Bidir.reachable ~vertex_ok:(Repairs.vertex_ok rep)
      ~edge_ok:(Repairs.edge_ok rep) inst.Instance.graph h.Commodity.src
      h.Commodity.dst
  in
  (fixups, rep, connected)

(* A star through broken hub 1 cuts 0 -> 2 and 0 -> 3; 4 -> 5 is intact.
   Repairing 0 -> 2's path repairs the hub, and the re-check then finds
   0 -> 3 connected: one path for both. *)
let test_fixup_repairs_cut_candidate () =
  let inst =
    fixup_instance ~n:6
      ~edges:[ (0, 1); (1, 2); (1, 3); (4, 5) ]
      ~broken:[ 1 ]
      [ (0, 2, 5.0); (0, 3, 3.0); (4, 5, 1.0) ]
  in
  let fixups, rep, connected = run_fixup inst in
  Alcotest.(check int) "one fixup path" 1 fixups;
  Alcotest.(check (list int)) "hub repaired" [ 1 ]
    (Repairs.repaired_vertices rep);
  Alcotest.(check (list int)) "no edge repaired" [] (Repairs.repaired_edges rep);
  Alcotest.(check bool) "hub works" true (Repairs.vertex_ok rep 1);
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (Format.asprintf "%a connected" Commodity.pp h)
        true (connected h))
    inst.Instance.demands

(* 0 -> 2 has no path even in the full graph: it is dropped (the larger
   amount goes first), the loop goes on to 3 -> 5 through broken 4, and
   then ends. *)
let test_fixup_drops_dead_candidate () =
  let inst =
    fixup_instance ~n:6
      ~edges:[ (0, 1); (3, 4); (4, 5) ]
      ~broken:[ 4 ]
      [ (0, 2, 5.0); (3, 5, 2.0) ]
  in
  let fixups, rep, connected = run_fixup inst in
  Alcotest.(check int) "one fixup path" 1 fixups;
  Alcotest.(check (list int)) "only 4 repaired" [ 4 ]
    (Repairs.repaired_vertices rep);
  Alcotest.(check (list int)) "no edge repaired" [] (Repairs.repaired_edges rep);
  match inst.Instance.demands with
  | [ dead; live ] ->
    Alcotest.(check bool) "dead candidate stays cut" false (connected dead);
    Alcotest.(check bool) "live candidate connected" true (connected live)
  | _ -> Alcotest.fail "expected two demands"

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
          tc "pinned outputs" test_pinned_outputs;
          tc "ring-cut demand between working endpoints" test_ring_cut_demand;
          tc "fixup repairs a cut candidate" test_fixup_repairs_cut_candidate;
          tc "fixup drops a dead candidate" test_fixup_drops_dead_candidate;
          tc "delegation matches isp" test_delegation_matches_isp;
          QCheck_alcotest.to_alcotest prop_cache_matches_fresh ] ) ]
