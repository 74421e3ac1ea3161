module Num = Netrec_util.Num
module Obs = Netrec_obs.Obs
module Commodity = Netrec_flow.Commodity

(* Def. 2's maximal bubble for (s, t) in closed form: {s, t} plus every
   component of G - {s, t} that touches s or t and holds no other
   demand's endpoint ("clean").  It exists iff s = t, an edge joins s
   and t, or one clean component touches both (DESIGN §4 has the
   argument).  The labelling of G - {s, t} depends on the graph and the
   unordered pair only; the demand set decides which components are
   clean, by stamping the component of every other endpoint. *)
type labels = {
  comp : int array;  (* component of [v] in G - {s, t}; -1 for s and t *)
  touching : bool array;  (* the component touches s or t *)
  bridges : int array;  (* the components touching both s and t *)
  direct : bool;  (* an edge joins s and t *)
  dirty : int array;
      (* [dirty.(c) = stamp]: [c] holds another demand's endpoint in the
         current call *)
  mutable stamp : int;
}

let label g s t =
  Obs.count "bubble.labels";
  let comp = Traverse.component_ids ~vertex_ok:(fun v -> v <> s && v <> t) g in
  let count = Array.fold_left max (-1) comp + 1 in
  let touches_s = Array.make count false in
  let touches_t = Array.make count false in
  let direct = ref false in
  Graph.iter_incident g s (fun w _ ->
      if w = t then direct := true else touches_s.(comp.(w)) <- true);
  Graph.iter_incident g t (fun w _ ->
      if w <> s then touches_t.(comp.(w)) <- true);
  let bridges =
    List.filter
      (fun c -> touches_s.(c) && touches_t.(c))
      (List.init count Fun.id)
  in
  { comp;
    touching = Array.init count (fun c -> touches_s.(c) || touches_t.(c));
    bridges = Array.of_list bridges;
    direct = !direct;
    dirty = Array.make count 0;
    stamp = 0 }

let pair_key s t = if s < t then (s, t) else (t, s)

module Cache = struct
  type t = (int * int, labels) Hashtbl.t

  let create () = Hashtbl.create 16

  let retain c demands =
    let keep = Hashtbl.create (List.length demands) in
    List.iter
      (fun d ->
        Hashtbl.replace keep (pair_key d.Commodity.src d.Commodity.dst) ())
      demands;
    let dead =
      Hashtbl.fold
        (fun key _ acc -> if Hashtbl.mem keep key then acc else key :: acc)
        c []
    in
    List.iter (Hashtbl.remove c) dead
end

(* The bubble of [h] as a membership predicate, or [None].  Stamps the
   components of the other demands' endpoints: O(|demands|) on a cached
   pair. *)
let locate ?cache g ~demands h =
  Obs.count "bubble.finds";
  let s = h.Commodity.src and t = h.Commodity.dst in
  let lab =
    match cache with
    | None -> label g s t
    | Some c -> (
      let key = pair_key s t in
      match Hashtbl.find_opt c key with
      | Some lab -> lab
      | None ->
        let lab = label g s t in
        Hashtbl.replace c key lab;
        lab)
  in
  lab.stamp <- lab.stamp + 1;
  let stamp = lab.stamp in
  let stamp_endpoint x =
    if x <> s && x <> t then begin
      let c = lab.comp.(x) in
      if c >= 0 then lab.dirty.(c) <- stamp
    end
  in
  List.iter
    (fun d ->
      if not (d.Commodity.src = s && d.Commodity.dst = t)
         && not (d.Commodity.src = t && d.Commodity.dst = s)
      then begin
        stamp_endpoint d.Commodity.src;
        stamp_endpoint d.Commodity.dst
      end)
    demands;
  if s = t || lab.direct
     || Array.exists (fun c -> lab.dirty.(c) <> stamp) lab.bridges
  then
    Some
      (fun v ->
        v = s || v = t
        ||
        let c = lab.comp.(v) in
        c >= 0 && lab.touching.(c) && lab.dirty.(c) <> stamp)
  else None

let find ?cache g ~demands h =
  Option.map
    (fun inside -> List.filter inside (Graph.vertices g))
    (locate ?cache g ~demands h)

type prune = { amount : float; paths : (Paths.path * float) list }

let prune ?cache ~working_vertex ~working_edge ~cap g ~demands h =
  if not (Num.positive ~eps:Num.flow_eps h.Commodity.amount) then None
  else
    match locate ?cache g ~demands h with
    | None -> None
    | Some inside ->
      let vertex_ok v = inside v && working_vertex v in
      let flow =
        Maxflow.max_flow ~vertex_ok ~edge_ok:working_edge ~cap g
          ~source:h.Commodity.src ~sink:h.Commodity.dst
      in
      let amount = Float.min flow.Maxflow.value h.Commodity.amount in
      if not (Num.positive ~eps:Num.flow_eps amount) then None
      else begin
        let paths =
          Maxflow.decompose g ~source:h.Commodity.src ~sink:h.Commodity.dst
            flow
        in
        (* Trim the decomposition to exactly [amount]. *)
        let taken = ref 0.0 in
        let trimmed =
          List.filter_map
            (fun (p, f) ->
              let take = Float.min f (amount -. !taken) in
              if Num.positive ~eps:Num.flow_eps take then begin
                taken := !taken +. take;
                Some (p, take)
              end
              else None)
            paths
        in
        Some { amount = !taken; paths = trimmed }
      end
