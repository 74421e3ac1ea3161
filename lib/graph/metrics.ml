let hop_distance g u v = (Traverse.bfs_dist g u).(v)

let hop_diameter g =
  let n = Graph.nv g in
  let best = ref 0 in
  for u = 0 to n - 1 do
    let dist = Traverse.bfs_dist g u in
    Array.iter (fun d -> if d < max_int && d > !best then best := d) dist
  done;
  !best

(* Double-sweep lower bound: the eccentricity of a vertex farthest from
   an arbitrary start.  Two BFS passes instead of nv, which is what
   makes [summary] printable for the 10^5-vertex synthetic topologies. *)
let pseudo_diameter g =
  if Graph.nv g = 0 then 0
  else begin
    let far_from v =
      let dist = Traverse.bfs_dist g v in
      let best_v = ref v and best_d = ref 0 in
      Array.iteri
        (fun w d ->
          if d < max_int && d > !best_d then begin
            best_d := d;
            best_v := w
          end)
        dist;
      (!best_v, !best_d)
    in
    let u, _ = far_from 0 in
    snd (far_from u)
  end

let average_degree g =
  if Graph.nv g = 0 then 0.0
  else 2.0 *. float_of_int (Graph.ne g) /. float_of_int (Graph.nv g)

let density g =
  let n = Graph.nv g in
  if n < 2 then 0.0
  else float_of_int (Graph.ne g) /. (float_of_int (n * (n - 1)) /. 2.0)

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let d = Graph.degree g v in
      Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    (Graph.vertices g);
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort compare

(* Brandes' accumulation: one BFS per source; dependencies flow back in
   reverse BFS order.  Pair betweenness is halved at the end because each
   unordered pair is visited from both endpoints. *)
let betweenness g =
  let n = Graph.nv g in
  let score = Array.make n 0.0 in
  let sigma = Array.make n 0.0 in
  let dist = Array.make n (-1) in
  let delta = Array.make n 0.0 in
  let preds = Array.make n [] in
  let order = Array.make n 0 in
  for s = 0 to n - 1 do
    Array.fill sigma 0 n 0.0;
    Array.fill dist 0 n (-1);
    Array.fill delta 0 n 0.0;
    Array.fill preds 0 n [];
    let count = ref 0 in
    sigma.(s) <- 1.0;
    dist.(s) <- 0;
    let queue = Queue.create () in
    Queue.add s queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      order.(!count) <- v;
      incr count;
      List.iter
        (fun (w, _) ->
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w queue
          end;
          if dist.(w) = dist.(v) + 1 then begin
            sigma.(w) <- sigma.(w) +. sigma.(v);
            preds.(w) <- v :: preds.(w)
          end)
        (Graph.incident g v)
    done;
    for i = !count - 1 downto 1 do
      let w = order.(i) in
      List.iter
        (fun v ->
          delta.(v) <-
            delta.(v) +. (sigma.(v) /. sigma.(w) *. (1.0 +. delta.(w))))
        preds.(w);
      score.(w) <- score.(w) +. delta.(w)
    done
  done;
  Array.map (fun x -> x /. 2.0) score

(* Above this size the exact diameter's nv BFS passes stop being a
   printing-time cost anyone wants; the double-sweep bound is reported
   as "diameter>=". *)
let exact_diameter_limit = 2048

let summary g =
  let diameter =
    if Graph.nv g <= exact_diameter_limit then
      Printf.sprintf "diameter=%d" (hop_diameter g)
    else Printf.sprintf "diameter>=%d" (pseudo_diameter g)
  in
  Printf.sprintf "nv=%d ne=%d avg_degree=%.2f max_degree=%d %s" (Graph.nv g)
    (Graph.ne g) (average_degree g) (Graph.max_degree g) diameter
