module Num = Netrec_util.Num
module Commodity = Netrec_flow.Commodity
module Obs = Netrec_obs.Obs

type contribution = { demand : Commodity.t; bundle : Paths.bundle }

type t = { score : float array; contributions : contribution list }

module Cache = struct
  (* A bundle is a function of (src, dst, amount) and the current
     length/cap metrics only, so that triple is the key.  The solver
     reports every metric change: [note_worse e] for an edge that got
     longer or lost residual capacity (a committed prune), and
     [note_improved c x] for a gate x, an endpoint of edges that got
     shorter or gained capacity (a repair).  [settle] then evicts every
     entry that one of the two kinds of change could alter; the rest
     replay bit for bit.  See DESIGN §11 for the argument. *)
  type key = int * int * float

  type entry = {
    bundle : Paths.bundle;
    edges : int list;  (* distinct edge ids appearing on the paths *)
    reach : float;
        (* the length of the longest path, summed from the source in
           path order under the metric that built the bundle (the label
           Dijkstra gave the path's end); [infinity] when the bundle
           stopped short of its demand with fewer than [max_paths]
           paths, since a capacity gain could open another path *)
  }

  type cache = {
    table : (key, entry) Hashtbl.t;
    worse : (int, unit) Hashtbl.t;  (* edges worsened since last compute *)
    mutable gates : Graph.vertex list;  (* gates reported since then *)
  }

  let create () =
    { table = Hashtbl.create 64; worse = Hashtbl.create 64; gates = [] }

  let note_worse c e = Hashtbl.replace c.worse e ()

  let note_improved c v = c.gates <- v :: c.gates

  (* Relative margin of the keep test: a sum of at most n path lengths is
     rounded by at most n * 2^-53 relative. *)
  let margin = 1e-9

  let evict c stale =
    let keys =
      Hashtbl.fold
        (fun key entry acc -> if stale key entry then key :: acc else acc)
        c.table []
    in
    List.iter (Hashtbl.remove c.table) keys

  (* Apply the changes reported since the previous compute.  Entries whose
     paths use a worsened edge go first.  Then, if gates are pending, an
     exact cache measures D, the distance from the nearest gate under the
     current metric, and keeps (s, t) only when D(s) + D(t) exceeds its
     reach: every path through a changed edge passes a gate, so it is
     longer than all of the bundle's paths.  A sampled cache evicts
     everything instead (its scores depend on which bundles are cached).
     The search stops at half the largest reach: a pair that must go has
     an end within it, and an unsettled end reads a lower bound, which
     can only evict more. *)
  let settle c ~exact ~length ~cap g =
    if Hashtbl.length c.worse > 0 then begin
      evict c (fun _ entry -> List.exists (Hashtbl.mem c.worse) entry.edges);
      Hashtbl.reset c.worse
    end;
    if c.gates <> [] then begin
      if not exact then Hashtbl.reset c.table
      else if Hashtbl.length c.table > 0 then begin
        let farthest =
          Hashtbl.fold (fun _ entry acc -> Float.max acc entry.reach) c.table 0.0
        in
        let d =
          Dijkstra.within
            ~edge_ok:(fun e -> cap e > Num.flow_eps)
            ~bound:(farthest *. (1.0 +. margin) /. 2.0)
            ~length g c.gates
        in
        evict c (fun (s, t, _) entry ->
            not (d.(s) +. d.(t) > entry.reach *. (1.0 +. margin)))
      end;
      c.gates <- []
    end

  (* Drop entries for demands that no longer exist (splits and fully
     pruned demands retire keys); keeps the table within O(live). *)
  let retain c keys =
    let keep = Hashtbl.create (List.length keys) in
    List.iter (fun k -> Hashtbl.replace keep k ()) keys;
    evict c (fun key _ -> not (Hashtbl.mem keep key))
end

let demand_key d =
  (d.Commodity.src, d.Commodity.dst, d.Commodity.amount)

let compute ?cache ?sample ?max_paths ~length ~cap g demands =
  let score = Array.make (Graph.nv g) 0.0 in
  let live =
    List.filter
      (fun d -> Num.positive ~eps:Num.flow_eps d.Commodity.amount)
      demands
  in
  (* Materialise the counters even on an all-sequential run so metrics
     consumers can rely on the keys existing. *)
  Obs.count ~n:0 "centrality.cache_hits";
  Obs.count ~n:0 "centrality.cache_misses";
  Obs.count ~n:0 "centrality.sampled_recomputed";
  Obs.count ~n:0 "centrality.sampled_skipped";
  (match cache with
  | Some c -> Cache.settle c ~exact:(sample = None) ~length ~cap g
  | None -> ());
  let cached demand =
    match cache with
    | None -> None
    | Some c -> Hashtbl.find_opt c.Cache.table (demand_key demand)
  in
  (* Under sampling, only the top-[k] missing demands — largest amount
     first, then (src, dst) for a deterministic order — earn a fresh
     Dijkstra bundle this round; cache hits stay free and exact. *)
  let recompute_ok =
    match sample with
    | None -> fun _ -> true
    | Some k ->
      let misses =
        List.filter (fun d -> Option.is_none (cached d)) live
      in
      let ranked =
        List.stable_sort
          (fun a b ->
            match compare b.Commodity.amount a.Commodity.amount with
            | 0 ->
              compare
                (a.Commodity.src, a.Commodity.dst)
                (b.Commodity.src, b.Commodity.dst)
            | c -> c)
          misses
      in
      let chosen = Hashtbl.create (max 1 k) in
      List.iteri
        (fun i d -> if i < k then Hashtbl.replace chosen (demand_key d) ())
        ranked;
      fun d -> Hashtbl.mem chosen (demand_key d)
  in
  let bundle_for demand =
    let fresh () =
      Paths.shortest_bundle ?max_paths ~length ~cap
        ~demand:demand.Commodity.amount g demand.Commodity.src
        demand.Commodity.dst
    in
    match cache with
    | None -> fresh ()
    | Some c -> (
      match Hashtbl.find_opt c.Cache.table (demand_key demand) with
      | Some entry ->
        Obs.count "centrality.cache_hits";
        entry.Cache.bundle
      | None ->
        Obs.count "centrality.cache_misses";
        let bundle = fresh () in
        let edges =
          List.sort_uniq compare
            (List.concat_map (fun (p, _) -> p) bundle.Paths.paths)
        in
        (* [Paths.shortest_bundle]'s stop rule: covered, or [max_paths]
           paths found; otherwise the endpoints ran out of paths. *)
        let stopped_short =
          bundle.Paths.covered < demand.Commodity.amount -. Num.flow_eps
          && List.length bundle.Paths.paths
             < Option.value max_paths ~default:max_int
        in
        let reach =
          if stopped_short then infinity
          else
            List.fold_left
              (fun acc (p, _) -> Float.max acc (Paths.length ~length p))
              0.0 bundle.Paths.paths
        in
        Hashtbl.replace c.Cache.table (demand_key demand)
          { Cache.bundle; edges; reach };
        bundle)
  in
  let contributions =
    List.filter_map
      (fun demand ->
        let skip =
          sample <> None
          && Option.is_none (cached demand)
          && not (recompute_ok demand)
        in
        if skip then begin
          Obs.count "centrality.sampled_skipped";
          None
        end
        else begin
          if sample <> None && Option.is_none (cached demand) then
            Obs.count "centrality.sampled_recomputed";
          let bundle = bundle_for demand in
          let total_cap =
            List.fold_left (fun acc (_, c) -> acc +. c) 0.0 bundle.Paths.paths
          in
          if Num.positive ~eps:Num.cap_eps total_cap then
            List.iter
              (fun (p, c) ->
                let weight = c /. total_cap *. demand.Commodity.amount in
                let vs = Paths.vertices_of g demand.Commodity.src p in
                List.iter
                  (fun v ->
                    if v <> demand.Commodity.src && v <> demand.Commodity.dst
                    then score.(v) <- score.(v) +. weight)
                  vs)
              bundle.Paths.paths;
          Some { demand; bundle }
        end)
      live
  in
  (match cache with
  | Some c ->
    Cache.retain c
      (List.map
         (fun d -> (d.Commodity.src, d.Commodity.dst, d.Commodity.amount))
         live)
  | None -> ());
  { score; contributions }

let best t =
  let best_v = ref (-1) in
  let best_s = ref Num.cap_eps in
  Array.iteri
    (fun v s ->
      if s > !best_s then begin
        best_v := v;
        best_s := s
      end)
    t.score;
  if !best_v < 0 then None else Some !best_v

let through_interior g contribution v =
  let { demand; bundle } = contribution in
  List.exists
    (fun (p, _) ->
      Paths.through g demand.Commodity.src demand.Commodity.dst v p)
    bundle.Paths.paths

let contributors g t v =
  List.filter (fun c -> through_interior g c v) t.contributions

let paths_capacity_through g contribution v =
  let { demand; bundle } = contribution in
  List.fold_left
    (fun acc (p, c) ->
      if Paths.through g demand.Commodity.src demand.Commodity.dst v p then
        acc +. c
      else acc)
    0.0 bundle.Paths.paths
