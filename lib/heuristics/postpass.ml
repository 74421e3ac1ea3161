module Routing = Netrec_flow.Routing
module Oracle = Netrec_flow.Oracle
open Netrec_core

type element = V of Graph.vertex | E of Graph.edge_id

let prune ?(max_rounds = 3) inst sol =
  let g = inst.Instance.graph in
  let kept_v = Array.make (Graph.nv g) false in
  let kept_e = Array.make (Graph.ne g) false in
  List.iter (fun v -> kept_v.(v) <- true) sol.Instance.repaired_vertices;
  List.iter (fun e -> kept_e.(e) <- true) sol.Instance.repaired_edges;
  let current () =
    let indices a =
      List.filteri (fun i _ -> a.(i)) (List.init (Array.length a) (fun i -> i))
    in
    { Instance.repaired_vertices = indices kept_v;
      repaired_edges = indices kept_e;
      routing = Routing.empty }
  in
  let routable () =
    let rep = Repairs.of_solution inst (current ()) in
    match
      Oracle.routable ~vertex_ok:(Repairs.vertex_ok rep)
        ~edge_ok:(Repairs.edge_ok rep)
        ~cap:(Graph.capacity g) g inst.Instance.demands
    with
    | Oracle.Routable r -> Some r
    | Oracle.Unroutable | Oracle.Unknown -> None
  in
  match routable () with
  | None -> sol (* not feasible to begin with: nothing to prune safely *)
  | Some routing0 ->
    let last_routing = ref routing0 in
    let cost = function
      | V v -> inst.Instance.vertex_cost.(v)
      | E e -> inst.Instance.edge_cost.(e)
    in
    let round () =
      let candidates =
        List.map (fun v -> V v) (current ()).Instance.repaired_vertices
        @ List.map (fun e -> E e) (current ()).Instance.repaired_edges
      in
      let candidates =
        List.stable_sort (fun a b -> compare (cost b) (cost a)) candidates
      in
      let progress = ref false in
      List.iter
        (fun el ->
          let set value =
            match el with
            | V v -> kept_v.(v) <- value
            | E e -> kept_e.(e) <- value
          in
          set false;
          match routable () with
          | Some r ->
            last_routing := r;
            progress := true
          | None -> set true)
        candidates;
      !progress
    in
    let rec loop n = if n > 0 && round () then loop (n - 1) in
    loop max_rounds;
    { (current ()) with Instance.routing = !last_routing }
