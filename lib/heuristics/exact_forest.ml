module Obs = Netrec_obs.Obs

(* Dreyfus-Wagner over hop distances.  S.(mask).(v) = minimum edge count
   of a tree spanning terminal set [mask] plus vertex [v]. *)

let infty = max_int / 4

let steiner_tree_hops g ~terminals =
  let terminals = List.sort_uniq compare terminals in
  match terminals with
  | [] | [ _ ] -> Some 0
  | _ ->
    let k = List.length terminals in
    if k > 16 then invalid_arg "Exact_forest: too many terminals";
    let n = Graph.nv g in
    let term = Array.of_list terminals in
    let dist =
      Array.map
        (fun t ->
          let d = Traverse.bfs_dist g t in
          Array.map (fun x -> if x = max_int then infty else x) d)
        term
    in
    (* Mutual connectivity check. *)
    let connected =
      Array.for_all (fun t -> dist.(0).(t) < infty) term
    in
    if not connected then None
    else begin
      (* dist_any.(v).(u) needed for the relaxation step: hop distance
         between arbitrary vertices.  One BFS per vertex is fine at the
         sizes Fig. 7 uses (n = 100). *)
      let all_dist =
        Array.init n (fun v ->
            let d = Traverse.bfs_dist g v in
            Array.map (fun x -> if x = max_int then infty else x) d)
      in
      let size = 1 lsl k in
      let s = Array.make_matrix size n infty in
      for i = 0 to k - 1 do
        let mask = 1 lsl i in
        for v = 0 to n - 1 do
          s.(mask).(v) <- dist.(i).(v)
        done
      done;
      for mask = 1 to size - 1 do
        if mask land (mask - 1) <> 0 then begin
          (* merge step: split mask into sub + rest at the same vertex;
             each unordered split is visited once (sub <= rest). *)
          let tmp = Array.make n infty in
          let sub = ref ((mask - 1) land mask) in
          while !sub > 0 do
            let rest = mask lxor !sub in
            if !sub <= rest then
              for v = 0 to n - 1 do
                let c = s.(!sub).(v) + s.(rest).(v) in
                if c < tmp.(v) then tmp.(v) <- c
              done;
            sub := (!sub - 1) land mask
          done;
          (* relaxation step: attach via a shortest path *)
          for v = 0 to n - 1 do
            let best = ref tmp.(v) in
            for u = 0 to n - 1 do
              if tmp.(u) < infty then begin
                let c = tmp.(u) + all_dist.(u).(v) in
                if c < !best then best := c
              end
            done;
            s.(mask).(v) <- !best
          done
        end
      done;
      let full = size - 1 in
      Some s.(full).(term.(0))
    end

(* Set partitions of [0 .. n-1] via restricted-growth strings. *)
let partitions n =
  let acc = ref [] in
  let assign = Array.make n 0 in
  let rec go i maxg =
    if i = n then begin
      let groups = Array.make (maxg + 1) [] in
      for j = n - 1 downto 0 do
        groups.(assign.(j)) <- j :: groups.(assign.(j))
      done;
      acc := Array.to_list groups :: !acc
    end
    else
      for gidx = 0 to maxg + 1 do
        assign.(i) <- gidx;
        go (i + 1) (max maxg gidx)
      done
  in
  if n = 0 then [ [] ]
  else begin
    go 0 (-1);
    !acc
  end

let optimal_total_repairs g ~pairs =
  let pairs = List.filter (fun (s, t) -> s <> t) pairs in
  if List.length pairs > 8 then None
  else begin
    (* Pre-merge pairs sharing an endpoint: forest components are vertex
       disjoint, so such pairs necessarily share a component. *)
    let np = List.length pairs in
    let parr = Array.of_list pairs in
    (* Union-find over pair indices: pairs sharing an endpoint must end up
       in the same forest component. *)
    let parent = Array.init np (fun i -> i) in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then parent.(ri) <- rj
    in
    for i = 0 to np - 1 do
      for j = i + 1 to np - 1 do
        let a, b = parr.(i) and c, d = parr.(j) in
        if a = c || a = d || b = c || b = d then union i j
      done
    done;
    let block_tbl = Hashtbl.create np in
    for i = np - 1 downto 0 do
      let r = find i in
      let members = Option.value ~default:[] (Hashtbl.find_opt block_tbl r) in
      Hashtbl.replace block_tbl r (i :: members)
    done;
    let blocks = Hashtbl.fold (fun _ members acc -> members :: acc) block_tbl [] in
    let nb = List.length blocks in
    let barr = Array.of_list blocks in
    let terminals_of_block b =
      List.concat_map
        (fun i ->
          let s, t = parr.(i) in
          [ s; t ])
        b
      |> List.sort_uniq compare
    in
    (* Cache Steiner-tree costs per terminal set; each miss is one
       Dreyfus-Wagner solve. *)
    let cache = Hashtbl.create 64 in
    let tree_cost terms =
      match Hashtbl.find_opt cache terms with
      | Some c -> c
      | None ->
        Obs.count "forest.tree_solves";
        let c = steiner_tree_hops g ~terminals:terms in
        Hashtbl.replace cache terms c;
        c
    in
    let best = ref None in
    List.iter
      (fun partition ->
        (* partition is a list of groups of block indices *)
        let cost =
          List.fold_left
            (fun acc group ->
              match acc with
              | None -> None
              | Some total ->
                let terms =
                  List.concat_map
                    (fun bi -> terminals_of_block barr.(bi))
                    group
                  |> List.sort_uniq compare
                in
                (match tree_cost terms with
                | None -> None
                | Some edges -> Some (total + (2 * edges) + 1)))
            (Some 0) partition
        in
        match (cost, !best) with
        | Some c, None -> best := Some c
        | Some c, Some b when c < b -> best := Some c
        | _ -> ())
      (partitions nb);
    !best
  end
