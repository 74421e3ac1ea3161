module Rng = Netrec_util.Rng
module Commodity = Netrec_flow.Commodity

(* All unordered pairs at hop distance >= threshold, with their distance. *)
let eligible_pairs g =
  let n = Graph.nv g in
  if n < 2 then invalid_arg "Demand_gen: graph too small";
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
  if far <> [] then far
  else
    (* Degenerate graphs (e.g. cliques): fall back to the farthest pairs. *)
    let dmax = List.fold_left (fun acc (_, d) -> max acc d) 0 all in
    List.filter (fun (_, d) -> d = dmax) all

(* Above this vertex count [eligible_pairs]'s O(n^2) pair list is
   unusable; pairs are drawn by sampling BFS rows instead. *)
let sample_limit = 4096

(* Sampled far pairs for xl graphs: draw a source, BFS it, draw a
   uniform target among the vertices at least [threshold] hops away.
   The threshold comes from the pseudo-diameter (a lower bound), so
   "far" is judged slightly more leniently than on small graphs —
   acceptable for 10^5-vertex synthetics where the exact diameter is
   out of reach by construction. *)
let sampled_draw ~rng ~count ~amount ~distinct g =
  let n = Graph.nv g in
  if n < 2 then invalid_arg "Demand_gen: graph too small";
  let threshold = (Metrics.pseudo_diameter g + 1) / 2 in
  let used = Hashtbl.create 16 in
  let pair_used = Hashtbl.create 16 in
  let taken = ref [] in
  let ntaken = ref 0 in
  let tries = ref 0 in
  while !ntaken < count && !tries < 64 * count do
    incr tries;
    let u = Rng.int rng n in
    if not (distinct && Hashtbl.mem used u) then begin
      let dist = Traverse.bfs_dist g u in
      let far = ref [] in
      let nfar = ref 0 in
      Array.iteri
        (fun v d ->
          if d < max_int && d >= threshold then begin
            far := v :: !far;
            incr nfar
          end)
        dist;
      if !nfar > 0 then begin
        let arr = Array.of_list !far in
        let v = arr.(Rng.int rng !nfar) in
        let key = (min u v, max u v) in
        let clash =
          Hashtbl.mem pair_used key
          || (distinct && (Hashtbl.mem used u || Hashtbl.mem used v))
        in
        if not clash then begin
          Hashtbl.replace pair_used key ();
          Hashtbl.replace used u ();
          Hashtbl.replace used v ();
          taken := Commodity.make ~src:u ~dst:v ~amount :: !taken;
          incr ntaken
        end
      end
    end
  done;
  List.rev !taken

let draw ~rng ~count ~amount ~distinct g =
  if Graph.nv g > sample_limit then sampled_draw ~rng ~count ~amount ~distinct g
  else
  let candidates = Array.of_list (eligible_pairs g) in
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

let far_pairs ~rng ~count ~amount g = draw ~rng ~count ~amount ~distinct:false g

let distinct_endpoint_pairs ~rng ~count ~amount g =
  draw ~rng ~count ~amount ~distinct:true g

let feasible ~rng ?(distinct = false) ~tries ~count ~amount g =
  let routable ds =
    List.length ds = count
    &&
    match Netrec_flow.Oracle.routable ~cap:(Graph.capacity g) g ds with
    | Netrec_flow.Oracle.Routable _ -> true
    | Netrec_flow.Oracle.Unroutable | Netrec_flow.Oracle.Unknown -> false
  in
  let rec attempt n =
    if n = 0 then None
    else
      let ds = draw ~rng ~count ~amount ~distinct g in
      if routable ds then Some ds else attempt (n - 1)
  in
  attempt tries
