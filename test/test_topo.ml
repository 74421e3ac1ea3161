open Netrec_graph
open Netrec_topo
module Rng = Netrec_util.Rng
module Commodity = Netrec_flow.Commodity

(* ---- Bell-Canada ---- *)

let test_bc_size () =
  let g = Bell_canada.graph () in
  Alcotest.(check int) "nodes" 48 (Graph.nv g);
  Alcotest.(check int) "edges" 64 (Graph.ne g)

let test_bc_connected () =
  Alcotest.(check bool) "connected" true
    (Traverse.is_connected (Bell_canada.graph ()))

let test_bc_capacity_plan () =
  let g = Bell_canada.graph () in
  let count c =
    Graph.fold_edges
      (fun e acc -> if abs_float (e.Graph.capacity -. c) < 1e-9 then acc + 1 else acc)
      g 0
  in
  Alcotest.(check int) "backbone 50" 9 (count 50.0);
  Alcotest.(check int) "backbone 30" 16 (count 30.0);
  Alcotest.(check int) "access 20" (64 - 9 - 16) (count 20.0)

let test_bc_backbone_lists_match () =
  let g = Bell_canada.graph () in
  List.iter
    (fun (u, v) ->
      match Graph.find_edge g u v with
      | Some e ->
        Alcotest.(check (float 1e-9)) "cap 50" 50.0 (Graph.capacity g e)
      | None -> Alcotest.failf "missing backbone50 edge %d-%d" u v)
    Bell_canada.backbone50;
  List.iter
    (fun (u, v) ->
      match Graph.find_edge g u v with
      | Some e ->
        Alcotest.(check (float 1e-9)) "cap 30" 30.0 (Graph.capacity g e)
      | None -> Alcotest.failf "missing backbone30 edge %d-%d" u v)
    Bell_canada.backbone30

let test_bc_has_coords_and_names () =
  let g = Bell_canada.graph () in
  Alcotest.(check bool) "coords" true (Graph.has_coords g);
  Alcotest.(check string) "a name" "Vancouver" (Graph.name g 1)

let test_bc_west_east_cut_capacity () =
  (* The design invariant behind the paper's demand intensities: the
     west-east cuts between major hubs carry at least the two backbones'
     80 units, so 4 pairs x 18 units (Fig. 5's sweep) can cross. *)
  let g = Bell_canada.graph () in
  let v = Maxflow.max_flow_value g ~source:1 ~sink:29 in
  Alcotest.(check bool) "Vancouver->Montreal >= 80" true (v >= 80.0 -. 1e-6)

let test_bc_supports_paper_demands () =
  (* 4 pairs x 18 units (the top of Fig. 5's sweep) must be routable on
     the intact network for most far-apart draws; require that a
     majority of seeds give a feasible instance, matching the paper's
     setting where every generated instance is solvable. *)
  let g = Bell_canada.graph () in
  let feasible seed =
    let rng = Rng.create seed in
    let demands = Demand_gen.far_pairs ~rng ~count:4 ~amount:18.0 g in
    match
      Netrec_flow.Oracle.routable ~cap:(Graph.capacity g) g demands
    with
    | Netrec_flow.Oracle.Routable _ -> 1
    | Netrec_flow.Oracle.Unroutable | Netrec_flow.Oracle.Unknown -> 0
  in
  let ok = List.fold_left ( + ) 0 (List.init 10 (fun s -> feasible (s + 1))) in
  Alcotest.(check bool) "mostly feasible" true (ok >= 6)

(* ---- Demand generation ---- *)

let test_far_pairs_distance () =
  let g = Bell_canada.graph () in
  let diameter = Metrics.hop_diameter g in
  let rng = Rng.create 4 in
  let demands = Demand_gen.far_pairs ~rng ~count:6 ~amount:5.0 g in
  Alcotest.(check int) "count" 6 (List.length demands);
  List.iter
    (fun d ->
      let dist = Metrics.hop_distance g d.Commodity.src d.Commodity.dst in
      Alcotest.(check bool) "far apart" true (dist >= (diameter + 1) / 2))
    demands

let test_far_pairs_amount () =
  let g = Bell_canada.graph () in
  let rng = Rng.create 4 in
  let demands = Demand_gen.far_pairs ~rng ~count:3 ~amount:7.5 g in
  List.iter
    (fun d -> Alcotest.(check (float 1e-9)) "amount" 7.5 d.Commodity.amount)
    demands

let test_far_pairs_deterministic () =
  let g = Bell_canada.graph () in
  let d1 = Demand_gen.far_pairs ~rng:(Rng.create 9) ~count:4 ~amount:1.0 g in
  let d2 = Demand_gen.far_pairs ~rng:(Rng.create 9) ~count:4 ~amount:1.0 g in
  Alcotest.(check bool) "same demands" true (d1 = d2)

let test_distinct_endpoints () =
  let g = Caida.graph () in
  let rng = Rng.create 2 in
  let demands =
    Demand_gen.distinct_endpoint_pairs ~rng ~count:7 ~amount:22.0 g
  in
  Alcotest.(check int) "count" 7 (List.length demands);
  let eps = Commodity.endpoints demands in
  Alcotest.(check int) "all distinct" 14 (List.length eps)

let test_far_pairs_clique_fallback () =
  (* A clique has diameter 1; the generator must still return pairs. *)
  let g = Generate.complete ~n:6 ~capacity:1.0 in
  let rng = Rng.create 1 in
  let demands = Demand_gen.far_pairs ~rng ~count:3 ~amount:1.0 g in
  Alcotest.(check int) "count" 3 (List.length demands)

let test_far_pairs_too_small_graph () =
  let g = Graph.make ~n:1 ~edges:[] () in
  Alcotest.check_raises "too small"
    (Invalid_argument "Demand_gen: graph too small") (fun () ->
      ignore (Demand_gen.far_pairs ~rng:(Rng.create 1) ~count:1 ~amount:1.0 g))

(* The draw as it was before the far-pair table: every call listed all
   pairs with their distance, filtered the far ones and shuffled them. *)
let reference_draw ~rng ~count ~amount ~distinct g =
  let n = Graph.nv g in
  let diameter = Metrics.hop_diameter g in
  let threshold = (diameter + 1) / 2 in
  let pairs = ref [] in
  for u = 0 to n - 1 do
    let dist = Traverse.bfs_dist g u in
    for v = u + 1 to n - 1 do
      if dist.(v) < max_int then pairs := ((u, v), dist.(v)) :: !pairs
    done
  done;
  let all = !pairs in
  let far = List.filter (fun (_, d) -> d >= threshold) all in
  let eligible =
    if far <> [] then far
    else
      let dmax = List.fold_left (fun acc (_, d) -> max acc d) 0 all in
      List.filter (fun (_, d) -> d = dmax) all
  in
  let candidates = Array.of_list eligible in
  Rng.shuffle rng candidates;
  let used = Hashtbl.create 16 in
  let taken = ref [] in
  let ntaken = ref 0 in
  Array.iter
    (fun ((u, v), _) ->
      if !ntaken < count then begin
        let clash = distinct && (Hashtbl.mem used u || Hashtbl.mem used v) in
        if not clash then begin
          Hashtbl.replace used u ();
          Hashtbl.replace used v ();
          taken := Commodity.make ~src:u ~dst:v ~amount :: !taken;
          incr ntaken
        end
      end)
    candidates;
  List.rev !taken

(* Draws from the per-topology table equal the reference draw by draw,
   and leave the generator in the same state, also when draws on two
   topologies interleave (the table is rebuilt on a switch). *)
let far_table_matches_reference_prop =
  QCheck.Test.make ~name:"far-pair table draws = per-draw pair list" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let gen = Rng.create seed in
      let graph () =
        match Rng.int gen 3 with
        | 0 -> Generate.complete ~n:(2 + Rng.int gen 6) ~capacity:1.0
        | _ ->
          Generate.erdos_renyi ~rng:gen ~n:(2 + Rng.int gen 30)
            ~p:(Rng.float gen 0.4) ~capacity:1.0
      in
      let g1 = graph () and g2 = graph () in
      let a = Rng.create (seed + 1) and b = Rng.create (seed + 1) in
      List.for_all
        (fun g ->
          let count = 1 + Rng.int gen 5 and distinct = Rng.bool gen in
          let got =
            if distinct then
              Demand_gen.distinct_endpoint_pairs ~rng:a ~count ~amount:2.0 g
            else Demand_gen.far_pairs ~rng:a ~count ~amount:2.0 g
          in
          got = reference_draw ~rng:b ~count ~amount:2.0 ~distinct g)
        [ g1; g1; g2; g1 ]
      && Rng.int a 1_000_000 = Rng.int b 1_000_000)

(* ---- CAIDA ---- *)

let test_caida_size () =
  let g = Caida.graph () in
  Alcotest.(check int) "nodes" Caida.nodes (Graph.nv g);
  Alcotest.(check int) "edges" Caida.edges (Graph.ne g)

let test_caida_connected () =
  Alcotest.(check bool) "connected" true (Traverse.is_connected (Caida.graph ()))

let test_caida_deterministic () =
  let g1 = Caida.graph () and g2 = Caida.graph () in
  Alcotest.(check string) "same topology" (Graph.to_edge_list g1)
    (Graph.to_edge_list g2)

let test_caida_heavy_tail () =
  (* Preferential attachment must produce a hub far above the mean
     degree, like the real AS28717 router graph. *)
  let g = Caida.graph () in
  Alcotest.(check bool) "hub exists" true (Graph.max_degree g >= 20)

let test_caida_capacity () =
  let g = Caida.graph ~capacity:30.0 () in
  Graph.fold_edges
    (fun e () ->
      Alcotest.(check (float 1e-9)) "uniform caps" 30.0 e.Graph.capacity)
    g ()

(* ---- synth: xl topologies from a textual spec ---- *)

let test_synth_parse_defaults () =
  match Synth.parse "sf:n=100" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
    Alcotest.(check int) "n" 100 s.Synth.n;
    Alcotest.(check int) "m default" 2 s.Synth.m;
    Alcotest.(check int) "seed default" 1 s.Synth.seed;
    Alcotest.(check (float 1e-9)) "cap default" 30.0 s.Synth.capacity;
    Alcotest.(check (float 1e-9)) "jitter default" 0.03 s.Synth.jitter

let test_synth_parse_full () =
  match Synth.parse "sf:n=5000,m=3,seed=42,cap=12.5,jitter=0.1" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
    Alcotest.(check int) "n" 5000 s.Synth.n;
    Alcotest.(check int) "m" 3 s.Synth.m;
    Alcotest.(check int) "seed" 42 s.Synth.seed;
    Alcotest.(check (float 1e-9)) "cap" 12.5 s.Synth.capacity;
    Alcotest.(check (float 1e-9)) "jitter" 0.1 s.Synth.jitter

let test_synth_parse_errors () =
  let rejected spec =
    match Synth.parse spec with
    | Error _ -> true
    | Ok _ -> false
  in
  List.iter
    (fun spec ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" spec) true
        (rejected spec))
    [ "sf:m=2" (* n is required *); "er:n=10" (* unknown family *);
      "sf:n=1" (* below the 2-vertex minimum *); "sf:n=10,bogus=1";
      "sf:n=ten"; "" ]

let test_synth_canonical_round_trip () =
  match Synth.parse "sf:n=750,seed=9" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s -> (
    let canonical = Synth.to_string s in
    match Synth.parse canonical with
    | Error e -> Alcotest.failf "canonical form %S rejected: %s" canonical e
    | Ok s' ->
      Alcotest.(check string) "fixed point" canonical (Synth.to_string s'))

let test_synth_graph_deterministic () =
  let build () =
    match Synth.of_string "sf:n=600,m=2,seed=7" with
    | Error e -> Alcotest.failf "of_string failed: %s" e
    | Ok g -> g
  in
  let g = build () in
  Alcotest.(check int) "nv" 600 (Graph.nv g);
  Alcotest.(check bool) "connected" true (Traverse.is_connected g);
  Alcotest.(check bool) "coords" true (Graph.has_coords g);
  Alcotest.(check string) "byte-identical rebuild"
    (Graph.to_edge_list g)
    (Graph.to_edge_list (build ()))

(* A synth-topology disaster instance must survive the plain-text
   instance format: the xl experiments rely on `recover plan --topo
   synth:... --save` output being re-loadable by `recover verify`. *)
let test_synth_serialize_round_trip () =
  let module Serialize = Netrec_core.Serialize in
  let module Instance = Netrec_core.Instance in
  let module Failure = Netrec_disrupt.Failure in
  let module Models = Netrec_disrupt.Models in
  let g =
    match Synth.of_string "sf:n=300,m=2,seed=11" with
    | Error e -> Alcotest.failf "of_string failed: %s" e
    | Ok g -> g
  in
  let rng = Rng.create 3 in
  let failure = Models.gaussian ~rng ~variance:0.002 g in
  let demands = Demand_gen.far_pairs ~rng ~count:8 ~amount:5.0 g in
  let inst = Instance.make ~graph:g ~demands ~failure () in
  let text = Serialize.to_string inst in
  let inst' = Serialize.of_string text in
  Alcotest.(check int) "nv" (Graph.nv g) (Graph.nv inst'.Instance.graph);
  Alcotest.(check string) "edges survive" (Graph.to_edge_list g)
    (Graph.to_edge_list inst'.Instance.graph);
  Alcotest.(check bool) "coords survive" true
    (Graph.has_coords inst'.Instance.graph);
  Alcotest.(check int) "demands survive" (List.length demands)
    (List.length inst'.Instance.demands);
  Alcotest.(check (list int)) "broken vertices survive"
    (Failure.broken_vertex_list failure)
    (Failure.broken_vertex_list inst'.Instance.failure);
  Alcotest.(check (list int)) "broken edges survive"
    (Failure.broken_edge_list failure)
    (Failure.broken_edge_list inst'.Instance.failure);
  Alcotest.(check string) "reserialization is a fixed point" text
    (Serialize.to_string inst')

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netrec_topo"
    [ ( "bell_canada",
        [ tc "size" test_bc_size;
          tc "connected" test_bc_connected;
          tc "capacity plan" test_bc_capacity_plan;
          tc "backbone lists" test_bc_backbone_lists_match;
          tc "coords and names" test_bc_has_coords_and_names;
          tc "west-east cut" test_bc_west_east_cut_capacity;
          tc "supports paper demands" test_bc_supports_paper_demands ] );
      ( "demand_gen",
        [ tc "far pairs distance" test_far_pairs_distance;
          tc "far pairs amount" test_far_pairs_amount;
          tc "deterministic" test_far_pairs_deterministic;
          tc "distinct endpoints" test_distinct_endpoints;
          tc "clique fallback" test_far_pairs_clique_fallback;
          tc "too small graph" test_far_pairs_too_small_graph;
          QCheck_alcotest.to_alcotest far_table_matches_reference_prop ] );
      ( "abilene",
        [ tc "size" (fun () ->
              let g = Abilene.graph () in
              Alcotest.(check int) "nv" 11 (Graph.nv g);
              Alcotest.(check int) "ne" 14 (Graph.ne g));
          tc "connected" (fun () ->
              Alcotest.(check bool) "connected" true
                (Traverse.is_connected (Abilene.graph ())));
          tc "embedded" (fun () ->
              Alcotest.(check bool) "coords" true
                (Graph.has_coords (Abilene.graph ())));
          tc "biconnected enough" (fun () ->
              (* The real Abilene survives any single node loss for the
                 coast-to-coast pair. *)
              let g = Abilene.graph () in
              List.iter
                (fun dead ->
                  if dead <> 0 && dead <> 10 then
                    Alcotest.(check bool) "alternative path" true
                      (Bidir.reachable ~vertex_ok:(fun v -> v <> dead) g 0 10))
                (Graph.vertices g)) ] );
      ( "synth",
        [ tc "parse defaults" test_synth_parse_defaults;
          tc "parse full spec" test_synth_parse_full;
          tc "parse errors" test_synth_parse_errors;
          tc "canonical round trip" test_synth_canonical_round_trip;
          tc "graph deterministic" test_synth_graph_deterministic;
          tc "serialize round trip" test_synth_serialize_round_trip ] );
      ( "caida",
        [ tc "size" test_caida_size;
          tc "connected" test_caida_connected;
          tc "deterministic" test_caida_deterministic;
          tc "heavy tail" test_caida_heavy_tail;
          tc "capacity" test_caida_capacity ] ) ]
