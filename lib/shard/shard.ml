module Obs = Netrec_obs.Obs
module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
module Oracle = Netrec_flow.Oracle
module Route_greedy = Netrec_flow.Route_greedy
module Instance = Netrec_core.Instance
module Isp = Netrec_core.Isp
module Repairs = Netrec_core.Repairs
module Centrality = Netrec_core.Centrality
module Pool = Netrec_parallel.Pool
module Check = Netrec_check.Check

let log_src = Logs.Src.create "netrec.shard" ~doc:"sharded ISP trace"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* BFS hops around broken elements included in the region.  The fringe
   is what lets sub-demand endpoints sit on working vertices; keep it
   small on heavy-tailed graphs, where a 2-hop fringe through a hub can
   swallow most of a scale-free network. *)
let halo = 1

(* Delegate to plain ISP when the region covers at least this fraction
   of all vertices. *)
let delegate_fraction = 0.25

(* Above this vertex count the final routing pass stays with the
   constructive greedy router instead of the LP/GK oracle ladder. *)
let oracle_nv_limit = 2048

(* Per-shard ISP, with sampled centrality and capped bundles: shards
   re-verify globally, so sampling is safe. *)
let shard_isp =
  { Isp.default_config with
    Isp.centrality_sample = Some 32;
    bundle_max_paths = Some 16 }

type stats = {
  shards : int;
  region_vertices : int;
  cut_demands : int;
  fixup_paths : int;
  delegated : bool;
  shard_stats : Isp.stats list;
  certificate : Check.certificate;
  wall_seconds : float;
}

(* ---- disaster region ---- *)

(* Multi-source BFS from every broken element, [halo] hops deep, over the
   FULL graph (broken elements included): the region is a topological
   neighborhood of the damage, not of what survives. *)
let region_of ~halo inst =
  let g = inst.Instance.graph in
  let n = Graph.nv g in
  let fail = inst.Instance.failure in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  let seed v =
    if dist.(v) = max_int then begin
      dist.(v) <- 0;
      Queue.add v q
    end
  in
  Array.iteri (fun v b -> if b then seed v) fail.Failure.broken_vertices;
  Array.iteri
    (fun e b ->
      if b then begin
        let u, v = Graph.endpoints g e in
        seed u;
        seed v
      end)
    fail.Failure.broken_edges;
  let in_region = Array.make n false in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    in_region.(v) <- true;
    if dist.(v) < halo then
      Graph.iter_incident g v (fun w _ ->
          if dist.(w) = max_int then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w q
          end)
  done;
  in_region

(* Whether demand [h] lost working connectivity in the repair state:
   one bidirectional reachability query, which scans about the smaller
   of its endpoints' working balls rather than the whole graph. *)
let cut_off g rep h =
  not
    (Bidir.reachable ~vertex_ok:(Repairs.vertex_ok rep)
       ~edge_ok:(Repairs.edge_ok rep) g h.Commodity.src h.Commodity.dst)

(* ---- demand segmentation ---- *)

(* Cut one broken demand's full-graph shortest path into per-shard
   sub-demands: each maximal run of consecutive path vertices inside one
   shard becomes (entry, exit, amount).  Consecutive in-region path
   vertices are adjacent in the graph, so a maximal run never straddles
   two shards; path segments between runs avoid the region entirely and
   the region contains every broken element, so they are working. *)
let segment_path ~shard_of g src p amount add_sub =
  let vs = Paths.vertices_of g src p in
  let produced = ref false in
  let rec walk = function
    | [] -> ()
    | v :: rest when shard_of.(v) < 0 -> walk rest
    | v :: rest ->
      let s = shard_of.(v) in
      let rec run last = function
        | w :: rest' when shard_of.(w) = s -> run w rest'
        | rest' -> (last, rest')
      in
      let last, rest' = run v rest in
      if v <> last then begin
        add_sub s v last amount;
        produced := true
      end;
      walk rest'
  in
  walk vs;
  !produced

(* ---- per-shard sub-instances ---- *)

type sub = {
  sinst : Instance.t;
  l2g_v : int array;  (* local vertex -> global vertex *)
  l2g_e : int array;  (* local edge -> global edge *)
}

let build_sub inst verts demands =
  let g = inst.Instance.graph in
  let verts = List.sort compare verts in
  let l2g_v = Array.of_list verts in
  let nl = Array.length l2g_v in
  let g2l = Hashtbl.create nl in
  Array.iteri (fun i v -> Hashtbl.replace g2l v i) l2g_v;
  let edge_ids = ref [] in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      Graph.iter_incident g v (fun w e ->
          if Hashtbl.mem g2l w && not (Hashtbl.mem seen e) then begin
            Hashtbl.replace seen e ();
            edge_ids := e :: !edge_ids
          end))
    l2g_v;
  let l2g_e = Array.of_list (List.sort compare !edge_ids) in
  let src, dst, capacity = Graph.columns g in
  let local column = Array.map (fun e -> Hashtbl.find g2l column.(e)) l2g_e in
  let coords =
    if Graph.has_coords g then
      let xy = Array.map (fun v -> Option.get (Graph.coord g v)) l2g_v in
      Some (Array.map fst xy, Array.map snd xy)
    else None
  in
  let sg =
    Graph.of_columns ?coords ~n:nl ~src:(local src) ~dst:(local dst)
      ~capacity:(Array.map (fun e -> capacity.(e)) l2g_e) ()
  in
  let fail = inst.Instance.failure in
  let failure =
    { Failure.broken_vertices =
        Array.map (fun v -> fail.Failure.broken_vertices.(v)) l2g_v;
      broken_edges = Array.map (fun e -> fail.Failure.broken_edges.(e)) l2g_e
    }
  in
  let vertex_cost =
    Array.map (fun v -> inst.Instance.vertex_cost.(v)) l2g_v
  in
  let edge_cost = Array.map (fun e -> inst.Instance.edge_cost.(e)) l2g_e in
  let demands =
    Commodity.normalize
      (List.map
         (fun d ->
           Commodity.make
             ~src:(Hashtbl.find g2l d.Commodity.src)
             ~dst:(Hashtbl.find g2l d.Commodity.dst)
             ~amount:d.Commodity.amount)
         demands)
  in
  let sinst =
    Instance.make ~vertex_cost ~edge_cost ~graph:sg ~demands ~failure ()
  in
  { sinst; l2g_v; l2g_e }

(* ---- boundary-demand fixup ---- *)

(* After stitching, some demands can still lack working connectivity
   (their shortest path produced no usable sub-demands, or a shard solver
   repaired a different cut than the global path assumed).  Repair the
   repair-aware shortest full-graph path for each, largest amount first,
   committing the demand onto a residual so later fixups see the consumed
   capacity.  Paths are priced with the §IV-D length ({!Repairs.length})
   and come from the {!Centrality} bundle machinery backed by a
   {!Centrality.Cache}: each fixup repair reports its gate
   ([note_improved] — lengths drop at a repaired vertex and at an
   endpoint of a repaired edge; under the sampled centrality any gate
   flushes the cache) and capacity consumption invalidates exactly the
   touched edges ([note_worse]), the same invalidation contract ISP's
   loop relies on, so cached and fresh bundles stay bit-identical (see
   the equality property in test_shard.ml). *)
let fixup inst ~candidates rep =
  let g = inst.Instance.graph in
  let unsatisfied = List.filter (cut_off g rep) in
  match unsatisfied candidates with
  | [] -> 0  (* the stitched repairs reconnected every candidate *)
  | cut ->
    let resid = Array.init (Graph.ne g) (Graph.capacity g) in
    let cache = Centrality.Cache.create () in
    let fixups = ref 0 in
    let length = Repairs.length rep ~resid in
    let by_amount =
      List.stable_sort
        (fun a b ->
          match compare b.Commodity.amount a.Commodity.amount with
          | 0 ->
            compare
              (a.Commodity.src, a.Commodity.dst)
              (b.Commodity.src, b.Commodity.dst)
          | c -> c)
    in
    let rec loop remaining =
      match remaining with
      | [] -> ()
      | _ ->
        let cent =
          Centrality.compute ~cache ?sample:shard_isp.Isp.centrality_sample
            ?max_paths:shard_isp.Isp.bundle_max_paths ~length
            ~cap:(fun e -> resid.(e))
            g remaining
        in
        (match cent.Centrality.contributions with
        | [] ->
          (* every remaining demand was sampled out (k = 0) or dead: give
             up on this pass rather than spin. *)
          ()
        | c :: _ -> (
          let h = c.Centrality.demand in
          match c.Centrality.bundle.Paths.paths with
          | [] ->
            (* no positive-residual full-graph path left: the demand cannot
               be helped by repairs; drop it from the fixup queue. *)
            loop (List.filter (fun d -> not (d == h)) remaining)
          | (p, _) :: _ ->
            Log.debug (fun m ->
                m "fixup %a over %d-edge path" Commodity.pp h (List.length p));
            ignore
              (Repairs.repair_path
                 ~on_edge:(fun e ->
                   Centrality.Cache.note_improved cache
                     (fst (Graph.endpoints g e)))
                 ~on_vertex:(Centrality.Cache.note_improved cache) rep p
                : bool);
            List.iter
              (fun e ->
                resid.(e) <- Float.max 0.0 (resid.(e) -. h.Commodity.amount);
                Centrality.Cache.note_worse cache e)
              p;
            incr fixups;
            Obs.count "isp.shard_fixup_paths";
            loop (unsatisfied remaining)))
    in
    loop (by_amount cut);
    !fixups

(* ---- final routing (mirrors Isp.final_solution, size-gated) ---- *)

let final_solution inst rep =
  Obs.span "shard.final_route" @@ fun () ->
  let g = inst.Instance.graph in
  let vertex_ok = Repairs.vertex_ok rep and edge_ok = Repairs.edge_ok rep in
  let cap = Graph.capacity g in
  let demands = inst.Instance.demands in
  let routing =
    if Graph.nv g <= oracle_nv_limit then
      match Oracle.routable ~vertex_ok ~edge_ok ~cap g demands with
      | Oracle.Routable r -> r
      | Oracle.Unroutable | Oracle.Unknown ->
        Oracle.max_satisfiable ~vertex_ok ~edge_ok ~cap g demands
    else
      (* xl graphs: stay constructive — the LP/GK escalation ladder is
         super-linear in the graph and the greedy router is already a
         certificate when it succeeds. *)
      match Route_greedy.route_all ~vertex_ok ~edge_ok ~cap g demands with
      | Some r -> r
      | None -> Route_greedy.route_max ~vertex_ok ~edge_ok ~cap g demands
  in
  Repairs.solution ~routing rep

(* ---- the solver ---- *)

let certify inst sol =
  Obs.span "shard.certify" @@ fun () -> Check.certify inst sol

let solve_body ~pool inst =
  let g = inst.Instance.graph in
  let n = Graph.nv g in
  Obs.count ~n:0 "isp.shard_count";
  Obs.count ~n:0 "isp.shard_region_vertices";
  Obs.count ~n:0 "isp.shard_cut_demands";
  Obs.count ~n:0 "isp.shard_fixup_paths";
  Obs.count ~n:0 "isp.shard_delegated";
  Obs.count ~n:0 "check.violations";
  let in_region =
    Obs.span "shard.region" @@ fun () ->
    region_of ~halo inst
  in
  let region_vertices =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in_region
  in
  Obs.count ~n:region_vertices "isp.shard_region_vertices";
  if
    n = 0
    || float_of_int region_vertices
       >= delegate_fraction *. float_of_int n
  then begin
    (* The disaster is not local: sharding would cut nothing.  Delegate
       to plain ISP (default config), which keeps small/global scenarios
       — fig9's complete destruction in particular — byte-identical to
       the unsharded solver. *)
    Obs.count "isp.shard_delegated";
    Log.info (fun m ->
        m "region %d/%d vertices: delegating to plain ISP" region_vertices n);
    let sol, isp_stats = Isp.solve ~config:Isp.default_config inst in
    let certificate = certify inst sol in
    ( sol,
      { shards = 0;
        region_vertices;
        cut_demands = 0;
        fixup_paths = 0;
        delegated = true;
        shard_stats = [ isp_stats ];
        certificate;
        wall_seconds = 0.0 } )
  end
  else begin
    (* Shards in order of smallest vertex, each vertex list ascending. *)
    let components, shard_of =
      Obs.span "shard.components" @@ fun () ->
      let components =
        Traverse.components ~vertex_ok:(fun v -> in_region.(v)) g
      in
      let shard_of = Array.make n (-1) in
      List.iteri
        (fun i verts -> List.iter (fun v -> shard_of.(v) <- i) verts)
        components;
      (components, shard_of)
    in
    let nshards = List.length components in
    let subs = Array.make (max 1 nshards) [] in
    let cut_demands = ref 0 in
    (* One repair state for the whole plan: the cut filter reads it
       before any repair, the stitch and the fixup repair into it and the
       final routing reads it.  The demands that lost working
       connectivity are the only ones recovery must touch.  Stitching and
       fixup only ever repair, so this set can not grow later; it doubles
       as the fixup candidate list. *)
    let rep, broken_demands =
      Obs.span "shard.segment" @@ fun () ->
      let rep = Repairs.create inst in
      let broken_demands =
        List.filter (cut_off g rep) (Commodity.normalize inst.Instance.demands)
      in
      List.iter
        (fun h ->
          match
            Bidir.path ~tie:Bidir.Fifo g h.Commodity.src h.Commodity.dst
          with
          | None | Some [] -> ()  (* disconnected even undamaged *)
          | Some p ->
            let produced =
              segment_path ~shard_of g h.Commodity.src p h.Commodity.amount
                (fun s a b amount ->
                  subs.(s) <-
                    Commodity.make ~src:a ~dst:b ~amount :: subs.(s))
            in
            if produced then begin
              incr cut_demands;
              Obs.count "isp.shard_cut_demands"
            end)
        broken_demands;
      (rep, broken_demands)
    in
    (* Only shards that received sub-demands need solving. *)
    let sub_arr =
      Obs.span "shard.build_sub" @@ fun () ->
      components
      |> List.mapi (fun i verts -> (i, verts))
      |> List.filter (fun (i, _) -> subs.(i) <> [])
      |> Array.of_list
      |> Array.map (fun (i, verts) -> build_sub inst verts (List.rev subs.(i)))
    in
    Obs.count ~n:(Array.length sub_arr) "isp.shard_count";
    Log.info (fun m ->
        m "region %d/%d vertices, %d shard(s), %d cut demand(s)"
          region_vertices n (Array.length sub_arr) !cut_demands);
    let results =
      Obs.span "shard.subsolve" @@ fun () ->
      Pool.map pool
        (fun _ sub -> Isp.solve ~config:shard_isp sub.sinst)
        sub_arr
    in
    (* Stitch: union of per-shard repairs, mapped back to global ids. *)
    Obs.span "shard.stitch" (fun () ->
        Array.iteri
          (fun i (sol, _) ->
            let sub = sub_arr.(i) in
            List.iter
              (fun lv -> ignore (Repairs.repair_vertex rep sub.l2g_v.(lv) : bool))
              sol.Instance.repaired_vertices;
            List.iter
              (fun le -> ignore (Repairs.repair_edge rep sub.l2g_e.(le) : bool))
              sol.Instance.repaired_edges)
          results);
    let fixup_paths =
      Obs.span "shard.fixup" @@ fun () ->
      fixup inst ~candidates:broken_demands rep
    in
    let sol = final_solution inst rep in
    let certificate = certify inst sol in
    ( sol,
      { shards = Array.length sub_arr;
        region_vertices;
        cut_demands = !cut_demands;
        fixup_paths;
        delegated = false;
        shard_stats = Array.to_list (Array.map snd results);
        certificate;
        wall_seconds = 0.0 } )
  end

let solve ?pool inst =
  let pool =
    match pool with Some p -> p | None -> Pool.create ~jobs:1
  in
  let (sol, stats), wall =
    Obs.timed "shard.solve" (fun () -> solve_body ~pool inst)
  in
  Obs.observe "shard.solve_ms" (1e3 *. wall);
  (sol, { stats with wall_seconds = wall })
