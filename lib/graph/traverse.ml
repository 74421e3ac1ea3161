let all_vertices _ = true
let all_edges _ = true

let bfs_dist ?(vertex_ok = all_vertices) ?(edge_ok = all_edges) g src =
  let n = Graph.nv g in
  let dist = Array.make n max_int in
  if src < 0 || src >= n then invalid_arg "Traverse: source out of range";
  if vertex_ok src then begin
    let queue = Queue.create () in
    dist.(src) <- 0;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Graph.iter_incident g u (fun w e ->
          if vertex_ok w && edge_ok e && dist.(w) = max_int then begin
            dist.(w) <- dist.(u) + 1;
            Queue.add w queue
          end)
    done
  end;
  dist

(* One BFS labelling pass over a shared array queue: each vertex is
   enqueued once, so k components cost O(n + e), not O(k * n).  Scanning
   sources in increasing order numbers components by smallest vertex. *)
let component_ids ?(vertex_ok = all_vertices) ?(edge_ok = all_edges) g =
  let n = Graph.nv g in
  let comp = Array.make n (-1) in
  let queue = Array.make n 0 in
  let next = ref 0 in
  for src = 0 to n - 1 do
    if comp.(src) < 0 && vertex_ok src then begin
      let c = !next in
      incr next;
      comp.(src) <- c;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        Graph.iter_incident g u (fun w e ->
            if comp.(w) < 0 && vertex_ok w && edge_ok e then begin
              comp.(w) <- c;
              queue.(!tail) <- w;
              incr tail
            end)
      done
    end
  done;
  comp

let components ?vertex_ok ?edge_ok g =
  let comp = component_ids ?vertex_ok ?edge_ok g in
  let k = Array.fold_left max (-1) comp + 1 in
  let buckets = Array.make k [] in
  for v = Array.length comp - 1 downto 0 do
    let c = comp.(v) in
    if c >= 0 then buckets.(c) <- v :: buckets.(c)
  done;
  Array.to_list buckets

let giant_component ?vertex_ok ?edge_ok g =
  let comps = components ?vertex_ok ?edge_ok g in
  List.fold_left
    (fun best c -> if List.length c > List.length best then c else best)
    [] comps

let is_connected g =
  Graph.nv g <= 1
  ||
  let dist = bfs_dist g 0 in
  Array.for_all (fun d -> d < max_int) dist
