module Obs = Netrec_obs.Obs
module Json = Netrec_obs.Metrics_diff.Json

let format_tag = "netrec-journal/1"

type cells = (string * (string * float) list) list

(* ---- the journal ----
   One flat JSON object per line.  Strings go through [Json.escape], so a
   line holds no raw control byte; numbers are written with %.17g, so
   they read back bit for bit, non-finite ones through the parser's
   [~non_finite] mode. *)

type t = {
  oc : out_channel;
  (* Cells seen so far, reversed, keyed by (point, run). *)
  table : (string * int, (string * (string * float) list) list ref) Hashtbl.t;
  done_set : (string * int, unit) Hashtbl.t;
}

let reserved = [ "type"; "point"; "run"; "alg" ]

(* A malformed (e.g. crash-truncated) line loads nothing. *)
let load_line table done_set line =
  let fields =
    match Json.parse ~non_finite:true line with
    | Json.Obj fields -> fields
    | _ | (exception Json.Parse_error _) -> []
  in
  let str k = Option.bind (List.assoc_opt k fields) Json.string_val
  and num k = Option.bind (List.assoc_opt k fields) Json.number in
  match (str "type", str "point", num "run") with
  | Some "done", Some point, Some run ->
    Hashtbl.replace done_set (point, int_of_float run) ()
  | Some "cell", Some point, Some run -> (
    match str "alg" with
    | None -> ()
    | Some alg ->
      let payload =
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json.Num f when not (List.mem k reserved) -> Some (k, f)
            | _ -> None)
          fields
      in
      let key = (point, int_of_float run) in
      let cells =
        match Hashtbl.find_opt table key with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.replace table key r;
          r
      in
      cells := (alg, payload) :: !cells)
  | _ -> ()

(* The OPT budgets of a journal's settings lines, in file order. *)
let budgets lines =
  List.filter_map
    (fun line ->
      match Json.parse ~non_finite:true line with
      | Json.Obj fields
        when Option.bind (List.assoc_opt "type" fields) Json.string_val
             = Some "settings" ->
        Option.map int_of_float
          (Option.bind (List.assoc_opt "opt_nodes" fields) Json.number)
      | _ | (exception Json.Parse_error _) -> None)
    lines

let create ~opt_nodes path =
  let table = Hashtbl.create 64 in
  let done_set = Hashtbl.create 64 in
  let existing =
    if Sys.file_exists path then begin
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      List.rev !lines
    end
    else []
  in
  (match existing with
  | [] -> ()
  | tag :: rest ->
    if String.trim tag <> format_tag then
      failwith
        (Printf.sprintf "Journal.create: %s is not a %s file (header %S)" path
           format_tag tag);
    (* A cell's OPT column depends on the budget it was solved under, so
       a resume must run under the budget the journal was started with. *)
    (match budgets rest with
    | b :: _ when b = opt_nodes -> ()
    | [] ->
      failwith
        (Printf.sprintf
           "journal %s records no OPT budget, this run's is %d nodes: \
            start a new journal"
           path opt_nodes)
    | b :: _ ->
      failwith
        (Printf.sprintf
           "journal %s was written with an OPT budget of %d nodes, this \
            run's is %d: rerun with --opt-nodes %d or start a new journal"
           path b opt_nodes b));
    List.iter (load_line table done_set) rest);
  (* A crash can truncate the final line mid-write, leaving no trailing
     newline; appending straight after it would corrupt the next record
     too.  Terminate the orphan first. *)
  let needs_newline =
    Sys.file_exists path
    &&
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = in_channel_length ic in
        n > 0
        &&
        (seek_in ic (n - 1);
         input_char ic <> '\n'))
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  if needs_newline then output_string oc "\n";
  if existing = [] then begin
    output_string oc (format_tag ^ "\n");
    Printf.fprintf oc "{\"type\":\"settings\",\"opt_nodes\":%d}\n" opt_nodes;
    flush oc
  end;
  let resumed = Hashtbl.length done_set in
  if resumed > 0 then Obs.count ~n:resumed "journal.runs_resumed";
  { oc; table; done_set }

let close j = close_out j.oc

let completed j ~point ~run =
  if not (Hashtbl.mem j.done_set (point, run)) then None
  else
    match Hashtbl.find_opt j.table (point, run) with
    | None -> Some []
    | Some cells ->
      (* [!cells] is reversed write order; keep each algorithm's last
         recorded value, presented in (final) write order. *)
      let seen = Hashtbl.create 8 in
      let deduped =
        List.filter
          (fun (alg, _) ->
            if Hashtbl.mem seen alg then false
            else begin
              Hashtbl.replace seen alg ();
              true
            end)
          !cells
      in
      Some (List.rev deduped)

let record j ~point ~run cells =
  let head kind =
    Printf.sprintf "{\"type\":\"%s\",\"point\":\"%s\",\"run\":%d" kind
      (Json.escape point) run
  in
  List.iter
    (fun (alg, payload) ->
      output_string j.oc (head "cell");
      Printf.fprintf j.oc ",\"alg\":\"%s\"" (Json.escape alg);
      List.iter
        (fun (k, v) -> Printf.fprintf j.oc ",\"%s\":%.17g" (Json.escape k) v)
        payload;
      output_string j.oc "}\n")
    cells;
  output_string j.oc (head "done" ^ "}\n");
  flush j.oc;
  Hashtbl.replace j.done_set (point, run) ();
  Hashtbl.replace j.table (point, run)
    (ref (List.rev_map (fun (alg, payload) -> (alg, payload)) cells));
  Obs.count ~n:(List.length cells) "journal.cells_recorded"

let with_run j ~point ~run f =
  match j with
  | None -> f ()
  | Some j -> (
    match completed j ~point ~run with
    | Some cells ->
      Obs.count ~n:(List.length cells) "journal.cells_skipped";
      cells
    | None ->
      let cells = f () in
      record j ~point ~run cells;
      cells)
