module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
open Netrec_core

(* ---- union-find ---- *)

type uf = { parent : int array; rank : int array }

let uf_create n = { parent = Array.init n (fun i -> i); rank = Array.make n 0 }

let rec uf_find uf x =
  if uf.parent.(x) = x then x
  else begin
    let root = uf_find uf uf.parent.(x) in
    uf.parent.(x) <- root;
    root
  end

let uf_union uf a b =
  let ra = uf_find uf a and rb = uf_find uf b in
  if ra <> rb then
    if uf.rank.(ra) < uf.rank.(rb) then uf.parent.(ra) <- rb
    else if uf.rank.(ra) > uf.rank.(rb) then uf.parent.(rb) <- ra
    else begin
      uf.parent.(rb) <- ra;
      uf.rank.(ra) <- uf.rank.(ra) + 1
    end

(* ---- moat growing ---- *)

let forest g ~weight ~pairs =
  let n = Graph.nv g in
  let m = Graph.ne g in
  (* Only pairs connected in g can ever be joined. *)
  let pairs =
    List.filter (fun (s, t) -> s <> t && Bidir.reachable g s t) pairs
  in
  if pairs = [] then []
  else begin
    let uf = uf_create n in
    let slack = Array.init m (fun e -> weight e) in
    let chosen = ref [] in
    (* Active components: roots separating some pair. *)
    let active_roots () =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (s, t) ->
          let rs = uf_find uf s and rt = uf_find uf t in
          if rs <> rt then begin
            Hashtbl.replace tbl rs ();
            Hashtbl.replace tbl rt ()
          end)
        pairs;
      tbl
    in
    let rec grow () =
      let active = active_roots () in
      if Hashtbl.length active > 0 then begin
        (* Minimum time until some cross-component edge goes tight. *)
        let best_e = ref (-1) in
        let best_dt = ref infinity in
        for e = 0 to m - 1 do
          let u, v = Graph.endpoints g e in
          let ru = uf_find uf u and rv = uf_find uf v in
          if ru <> rv then begin
            let rate =
              (if Hashtbl.mem active ru then 1 else 0)
              + if Hashtbl.mem active rv then 1 else 0
            in
            if rate > 0 then begin
              let dt = slack.(e) /. float_of_int rate in
              if dt < !best_dt then begin
                best_dt := dt;
                best_e := e
              end
            end
          end
        done;
        if !best_e >= 0 then begin
          let dt = !best_dt in
          for e = 0 to m - 1 do
            let u, v = Graph.endpoints g e in
            let ru = uf_find uf u and rv = uf_find uf v in
            if ru <> rv then begin
              let rate =
                (if Hashtbl.mem active ru then 1 else 0)
                + if Hashtbl.mem active rv then 1 else 0
              in
              if rate > 0 then
                slack.(e) <-
                  Float.max 0.0 (slack.(e) -. (float_of_int rate *. dt))
            end
          done;
          let u, v = Graph.endpoints g !best_e in
          uf_union uf u v;
          chosen := !best_e :: !chosen;
          grow ()
        end
        (* No candidate edge: remaining pairs are unreachable; stop. *)
      end
    in
    grow ();
    (* Reverse delete: drop edges (most recent first) whose removal keeps
       every pair connected within the forest. *)
    let in_forest = Array.make m false in
    List.iter (fun e -> in_forest.(e) <- true) !chosen;
    let connected_within () =
      let edge_ok e = in_forest.(e) in
      List.for_all (fun (s, t) -> Bidir.reachable ~edge_ok g s t) pairs
    in
    List.iter
      (fun e ->
        in_forest.(e) <- false;
        if not (connected_within ()) then in_forest.(e) <- true)
      !chosen;
    List.filter (fun e -> in_forest.(e)) (List.init m (fun e -> e))
  end

let recovery inst =
  let g = inst.Instance.graph in
  let failure = inst.Instance.failure in
  let eps = 1e-4 in
  (* Repair-cost weights: broken elements cost their repair (vertex costs
     split between incident edges); working elements cost a whisper so
     shorter detours win ties. *)
  let weight e =
    let u, v = Graph.endpoints g e in
    let ke =
      if Failure.edge_broken failure e then inst.Instance.edge_cost.(e)
      else 0.0
    in
    let kv w =
      if Failure.vertex_broken failure w then
        inst.Instance.vertex_cost.(w) /. 2.0
      else 0.0
    in
    eps +. ke +. kv u +. kv v
  in
  let pairs =
    List.map
      (fun d -> (d.Commodity.src, d.Commodity.dst))
      inst.Instance.demands
  in
  let rep = Repairs.create inst in
  ignore (Repairs.repair_path rep (forest g ~weight ~pairs) : bool);
  (* Demand endpoints must work even when isolated. *)
  List.iter
    (fun (s, t) ->
      ignore (Repairs.repair_vertex rep s : bool);
      ignore (Repairs.repair_vertex rep t : bool))
    pairs;
  Postpass.prune inst (Repairs.solution rep)
