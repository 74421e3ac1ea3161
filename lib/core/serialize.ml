module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
module Routing = Netrec_flow.Routing

(* ---- encoder ----

   Every line goes straight into one [Buffer].  Floats print as [%.12g];
   an integral value below 1e12 in magnitude, which [%.12g] prints as
   its plain digits, is written from the int instead (ids, unit costs
   and integral capacities), except [-0.0], whose sign [%.12g] keeps. *)

(* The runtime primitive behind [Printf]'s [%g] and [string_of_float]:
   the same bytes, without a format interpreter per call. *)
external format_float : string -> float -> string = "caml_format_float"

let add_int buf i =
  (* Digits of the non-positive [n], most significant first: the
     negative side also holds [min_int]. *)
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))
  in
  if i < 0 then Buffer.add_char buf '-';
  digits (if i > 0 then -i else i)

let add_float buf x =
  if Float.is_integer x && Float.abs x < 1e12 && not (x = 0.0 && Float.sign_bit x)
  then add_int buf (int_of_float x)
  else Buffer.add_string buf (format_float "%.12g" x)

let to_string inst =
  let g = inst.Instance.graph in
  let nv = Graph.nv g in
  (* About the text's length: ~24 bytes per vertex and per edge. *)
  let buf = Buffer.create (256 + (24 * (nv + Graph.ne g))) in
  let sep () = Buffer.add_char buf ' ' and eol () = Buffer.add_char buf '\n' in
  let line s = Buffer.add_string buf s; eol () in
  let ids a = Array.iteri (fun i b -> if b then (add_int buf i; eol ())) a in
  let floats a = Array.iter (fun x -> add_float buf x; eol ()) a in
  line "[graph]";
  let src, dst, capacity = Graph.columns g in
  for e = 0 to Graph.ne g - 1 do
    add_int buf src.(e); sep ();
    add_int buf dst.(e); sep ();
    add_float buf capacity.(e); eol ()
  done;
  if Graph.has_coords g then begin
    line "[coords]";
    for v = 0 to nv - 1 do
      let x, y = Option.get (Graph.coord g v) in
      add_float buf x; sep (); add_float buf y; eol ()
    done
  end;
  line "[names]";
  for v = 0 to nv - 1 do line (Graph.name g v) done;
  line "[demands]";
  List.iter
    (fun d ->
      add_int buf d.Commodity.src; sep ();
      add_int buf d.Commodity.dst; sep ();
      add_float buf d.Commodity.amount; eol ())
    inst.Instance.demands;
  line "[broken_vertices]";
  ids inst.Instance.failure.Failure.broken_vertices;
  line "[broken_edges]";
  ids inst.Instance.failure.Failure.broken_edges;
  line "[vertex_costs]";
  floats inst.Instance.vertex_cost;
  line "[edge_costs]";
  floats inst.Instance.edge_cost;
  Buffer.contents buf

type parse_error = { line : int; msg : string }

exception Parse_error of parse_error

let () =
  Printexc.register_printer (function
    | Parse_error { line; msg } ->
      Some (Printf.sprintf "Serialize.Parse_error (line %d: %s)" line msg)
    | _ -> None)

let err line fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error { line; msg })) fmt

(* ---- scanner ----

   Both parsers walk the text by index.  A line is the piece between two
   '\n' (numbered as [String.split_on_char '\n'] numbers them, so the
   empty piece after a trailing newline counts), trimmed of
   [String.trim]'s whitespace; blank lines and '#' comments are skipped.
   Fields split on ' ' only, by position, and numbers are read in place:
   only a token off the fast paths below is copied out.

   The instance parser first tries each line with a one-pass walk (see
   "the walk" below), which reads a record in canonical form from its
   first byte to its newline.  Every other line, and every error, goes
   to the line reader: [next_line], [split] and the field readers. *)

type scanner = {
  text : string;
  mutable next : int;  (* where the line after the current one starts *)
  mutable line : int;  (* 1-based number of the current line *)
  mutable first : int;  (* the current line, trimmed, is [first, last) *)
  mutable last : int;
  mutable pos : int;  (* where the last number read stopped *)
  mutable nf : int;  (* fields of the current line, after [split] *)
  mutable fs : int array;  (* field [i] is [fs.(i), fe.(i)) *)
  mutable fe : int array;
}

let scanner text =
  { text; next = 0; line = 0; first = 0; last = 0; pos = 0; nf = 0;
    fs = Array.make 8 0; fe = Array.make 8 0 }

let is_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

(* Move to the next line that is neither blank nor a comment; false at
   the end of the text. *)
let rec next_line sc =
  let text = sc.text in
  let len = String.length text in
  if sc.next > len then false
  else begin
    let stop = ref sc.next in
    while !stop < len && String.unsafe_get text !stop <> '\n' do incr stop done;
    let first = ref sc.next and last = ref !stop in
    sc.next <- !stop + 1;
    sc.line <- sc.line + 1;
    while !first < !last && is_space (String.unsafe_get text !first) do
      incr first
    done;
    while !last > !first && is_space (String.unsafe_get text (!last - 1)) do
      decr last
    done;
    if !first = !last || String.unsafe_get text !first = '#' then next_line sc
    else begin
      sc.first <- !first;
      sc.last <- !last;
      true
    end
  end

let is_header sc = String.unsafe_get sc.text sc.first = '['
let line_text sc = String.sub sc.text sc.first (sc.last - sc.first)

let split sc =
  let text = sc.text and last = sc.last in
  let nf = ref 0 and i = ref sc.first in
  while !i < last do
    if String.unsafe_get text !i = ' ' then incr i
    else begin
      if !nf = Array.length sc.fs then begin
        sc.fs <- Array.append sc.fs sc.fs;
        sc.fe <- Array.append sc.fe sc.fe
      end;
      sc.fs.(!nf) <- !i;
      while !i < last && String.unsafe_get text !i <> ' ' do incr i done;
      sc.fe.(!nf) <- !i;
      incr nf
    end
  done;
  sc.nf <- !nf

(* The value of the decimal digits from [sc.pos] on, when there are one
   to 18 of them (so it cannot overflow), with [sc.pos] moved past them;
   else -1. *)
let plain_int sc =
  let text = sc.text and s = sc.pos in
  let stop = min (String.length text) (s + 19) in
  let i = ref s and acc = ref 0 in
  while
    !i < stop
    && match String.unsafe_get text !i with '0' .. '9' -> true | _ -> false
  do
    acc := (!acc * 10) + Char.code (String.unsafe_get text !i) - 48;
    incr i
  done;
  sc.pos <- !i;
  if !i = s || !i - s > 18 then -1 else !acc

(* A non-negative integer field: [int_of_string_opt]'s syntax and value
   (hex, '_', a leading '+' ... go through it on a copy). *)
let id_in sc what s e =
  sc.pos <- s;
  let v = plain_int sc in
  if v >= 0 && sc.pos = e then v
  else
    let tok = String.sub sc.text s (e - s) in
    match int_of_string_opt tok with
    | Some i when i >= 0 -> i
    | Some i -> err sc.line "negative %s %d" what i
    | None -> err sc.line "bad %s %S (expected a non-negative integer)" what tok

let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* Clinger's fast path.  A token [-]d*[.d*][(e|E)[+|-]d+] with at least
   one mantissa digit and at most 15 significant ones is m * 10^k with
   m < 10^15 < 2^53, so m is exact as a double; for |k| <= 22 so is
   10^|k| (5^22 < 2^53).  One IEEE multiply or divide is correctly
   rounded, so it yields the correctly rounded value of the decimal,
   which is what [float_of_string] (strtod) returns; negation is exact.
   The token is read from [sc.pos] as far as that syntax goes, but not
   past [e], and [sc.pos] is left where it stopped.  A token off the
   fast path gives NaN, and the caller falls back. *)
let decimal sc e =
  let text = sc.text and s = sc.pos in
  let neg = s < e && String.unsafe_get text s = '-' in
  let i = ref (if neg then s + 1 else s) in
  let m = ref 0 and digits = ref 0 and seen = ref false in
  let k = ref 0 and point = ref false and mantissa = ref true in
  while !mantissa && !i < e do
    match String.unsafe_get text !i with
    | '0' .. '9' as c ->
      seen := true;
      if !m > 0 || c <> '0' then begin
        incr digits;
        if !digits <= 15 then m := (!m * 10) + Char.code c - 48
      end;
      if !point then decr k;
      incr i
    | '.' when not !point ->
      point := true;
      incr i
    | _ -> mantissa := false
  done;
  let exp_ok =
    if !i < e && (String.unsafe_get text !i = 'e' || String.unsafe_get text !i = 'E')
    then begin
      incr i;
      let eneg = !i < e && String.unsafe_get text !i = '-' in
      if !i < e && (eneg || String.unsafe_get text !i = '+') then incr i;
      let x = ref 0 and any = ref false in
      while !i < e && String.unsafe_get text !i >= '0' && String.unsafe_get text !i <= '9' do
        (* capped: an exponent this large falls back anyway *)
        if !x < 1000 then x := (!x * 10) + Char.code (String.unsafe_get text !i) - 48;
        any := true;
        incr i
      done;
      k := if eneg then !k - !x else !k + !x;
      !any
    end
    else true
  in
  sc.pos <- !i;
  if (not !seen) || (not exp_ok) || !digits > 15 || !k < -22 || !k > 22
  then Float.nan
  else
    let x = float_of_int !m in
    let x = if !k >= 0 then x *. pow10.(!k) else x /. pow10.(- !k) in
    if neg then -.x else x

(* A numeric field: [float_of_string_opt]'s syntax and value. *)
let float_in sc what s e =
  sc.pos <- s;
  let x = decimal sc e in
  if sc.pos = e && not (Float.is_nan x) then x
  else
    let tok = String.sub sc.text s (e - s) in
    match float_of_string_opt tok with
    | Some f -> f
    | None -> err sc.line "bad %s %S (expected a number)" what tok

let id_at sc k what = id_in sc what sc.fs.(k) sc.fe.(k)
let float_at sc k what = float_in sc what sc.fs.(k) sc.fe.(k)

(* ---- instances ---- *)

(* Growable columns of the records read so far, in file order. *)
type ints = { mutable iv : int array; mutable il : int }
type floats = { mutable fv : float array; mutable fl : int }

let ints () = { iv = [||]; il = 0 }
let floats () = { fv = [||]; fl = 0 }

let push c x =
  if c.il = Array.length c.iv then begin
    let a = Array.make ((2 * c.il) + 64) 0 in
    Array.blit c.iv 0 a 0 c.il;
    c.iv <- a
  end;
  Array.unsafe_set c.iv c.il x;
  c.il <- c.il + 1

let pushf c x =
  if c.fl = Array.length c.fv then begin
    let a = Array.make ((2 * c.fl) + 64) 0.0 in
    Array.blit c.fv 0 a 0 c.fl;
    c.fv <- a
  end;
  Array.unsafe_set c.fv c.fl x;
  c.fl <- c.fl + 1

(* The instance format takes no NaN anywhere. *)
let number sc what s e =
  let x = float_in sc what s e in
  if Float.is_nan x then
    err sc.line "NaN %s %S" what (String.sub sc.text s (e - s));
  x

let number_at sc k what = number sc what sc.fs.(k) sc.fe.(k)

(* A [graph] endpoint must lie below the text's length in bytes: a
   vertex id sizes every per-vertex array, and an encoded instance
   spends more than one byte per vertex. *)
let endpoint_at sc k =
  let u = id_at sc k "vertex id" in
  let len = String.length sc.text in
  if u >= len then err sc.line "vertex id %d too large for a %d-byte text" u len;
  u

let cost sc what =
  let c = number sc what sc.first sc.last in
  if c < 0.0 then err sc.line "negative %s %g" what c;
  if c = Float.infinity then err sc.line "non-finite %s %g" what c;
  c

let fields sc want section what =
  split sc;
  if sc.nf <> want then
    err sc.line "expected %s in %s, got %d field(s)" what section sc.nf

(* Whether the byte at [sc.pos] is [c]; if so, [sc.pos] steps over it. *)
let skip sc c =
  sc.pos < String.length sc.text
  && String.unsafe_get sc.text sc.pos = c
  && begin
    sc.pos <- sc.pos + 1;
    true
  end

(* Whether the text from [sc.pos] on starts with ["v" ^ string_of_int k],
   the default name of vertex [k]; [sc.pos] ends after its digits. *)
let default_name sc k =
  skip sc 'v'
  &&
  let s = sc.pos in
  plain_int sc = k && (String.unsafe_get sc.text s <> '0' || sc.pos = s + 1)

(* ---- the walk ----

   A record line in canonical form (what [to_string] writes: no space
   but one between fields, plain-digit ids, numbers on the fast path of
   [decimal]) is read in one pass from its first byte to its newline,
   splitting at spaces and reading each field as it comes.  The walk
   takes a line only when the record passes every check the line reader
   would make, and only then does it store the record and step past the
   line; otherwise [next] and [line] stay where they were and the line
   reader reads the line again, raising any error from there. *)

(* The walk is at the end of its line: step past it. *)
let walk_eol sc =
  (sc.pos = String.length sc.text || String.unsafe_get sc.text sc.pos = '\n')
  && begin
    sc.next <- sc.pos + 1;
    sc.line <- sc.line + 1;
    true
  end

let walk_number sc = decimal sc (String.length sc.text)

(* [graph]: "u v capacity" *)
let walk_edge sc eu ev cap =
  sc.pos <- sc.next;
  let len = String.length sc.text in
  let u = plain_int sc in
  u >= 0 && u < len && skip sc ' '
  &&
  let v = plain_int sc in
  v >= 0 && v < len && v <> u && skip sc ' '
  &&
  let c = walk_number sc in
  c >= 0.0 && walk_eol sc
  && begin
    push eu u;
    push ev v;
    pushf cap c;
    true
  end

(* [coords]: "x y" *)
let walk_coord sc cx cy =
  sc.pos <- sc.next;
  let x = walk_number sc in
  (not (Float.is_nan x)) && skip sc ' '
  &&
  let y = walk_number sc in
  (not (Float.is_nan y)) && walk_eol sc
  && begin
    pushf cx x;
    pushf cy y;
    true
  end

(* [vertex_costs], [edge_costs]: one cost *)
let walk_cost sc costs =
  sc.pos <- sc.next;
  let c = walk_number sc in
  c >= 0.0 && walk_eol sc
  && begin
    pushf costs c;
    true
  end

(* [names]: the default name of vertex [k] *)
let walk_default_name sc k =
  sc.pos <- sc.next;
  default_name sc k && walk_eol sc

(* A record whose ids are range-checked once the whole text is read. *)
type ranged = Broken_vertex of int | Broken_edge of int | Demand of Commodity.t

type section =
  | Before_any
  | Edges
  | Coords
  | Names
  | Demands
  | Broken_vertices
  | Broken_edges
  | Vertex_costs
  | Edge_costs
  | Unknown of string

let section_of_header = function
  | "[graph]" -> Edges
  | "[coords]" -> Coords
  | "[names]" -> Names
  | "[demands]" -> Demands
  | "[broken_vertices]" -> Broken_vertices
  | "[broken_edges]" -> Broken_edges
  | "[vertex_costs]" -> Vertex_costs
  | "[edge_costs]" -> Edge_costs
  | s -> Unknown s

(* Each field is checked in field order, then the record's own checks
   run. *)
let parse text =
  let sc = scanner text in
  let eu = ints () and ev = ints () and cap = floats () in
  let cx = floats () and cy = floats () in
  let vcost = floats () and ecost = floats () in
  (* [names] while every name so far is the default one: only a count;
     after the first other name, every name, in reverse order. *)
  let n_names = ref 0 and defaults = ref true and names = ref [] in
  let ranged = ref [] in  (* (line, record), in reverse file order *)
  (* First line of each section header, for errors spanning a section. *)
  let header_line = Hashtbl.create 8 in
  let current = ref Before_any in
  let walk () =
    match !current with
    | Edges -> walk_edge sc eu ev cap
    | Coords -> walk_coord sc cx cy
    | Names -> !defaults && walk_default_name sc !n_names && (incr n_names; true)
    | Vertex_costs -> walk_cost sc vcost
    | Edge_costs -> walk_cost sc ecost
    | Before_any | Demands | Broken_vertices | Broken_edges | Unknown _ -> false
  in
  let add_name () =
    sc.pos <- sc.first;
    if not (!defaults && default_name sc !n_names && sc.pos = sc.last) then begin
      if !defaults then begin
        defaults := false;
        names := List.init !n_names (fun i -> "v" ^ string_of_int (!n_names - 1 - i))
      end;
      names := line_text sc :: !names
    end;
    incr n_names
  in
  let read_line () =
    let ln = sc.line in
    if is_header sc then begin
      let h = line_text sc in
      current := section_of_header h;
      if not (Hashtbl.mem header_line h) then Hashtbl.replace header_line h ln
    end
    else
      match !current with
      | Edges ->
        fields sc 3 "[graph]" "3 fields (u v capacity)";
        let u = endpoint_at sc 0 in
        let v = endpoint_at sc 1 in
        let c = number_at sc 2 "capacity" in
        if c < 0.0 then err ln "negative capacity %g" c;
        if u = v then err ln "self-loop at vertex %d" u;
        push eu u;
        push ev v;
        pushf cap c
      | Coords ->
        fields sc 2 "[coords]" "2 fields (x y)";
        let x = number_at sc 0 "coordinate" in
        let y = number_at sc 1 "coordinate" in
        pushf cx x;
        pushf cy y
      | Names -> add_name ()
      | Demands ->
        fields sc 3 "[demands]" "3 fields (src dst amount)";
        let s = id_at sc 0 "vertex id" in
        let t = id_at sc 1 "vertex id" in
        let a = number_at sc 2 "demand amount" in
        if a < 0.0 then err ln "negative demand amount %g" a;
        if a = 0.0 then err ln "zero demand amount %g" a;
        if a = Float.infinity then err ln "non-finite demand amount %g" a;
        if s = t then err ln "demand with equal endpoints %d" s;
        ranged := (ln, Demand { Commodity.src = s; dst = t; amount = a }) :: !ranged
      | Broken_vertices ->
        let v = id_in sc "vertex id" sc.first sc.last in
        ranged := (ln, Broken_vertex v) :: !ranged
      | Broken_edges ->
        let e = id_in sc "edge id" sc.first sc.last in
        ranged := (ln, Broken_edge e) :: !ranged
      | Vertex_costs -> pushf vcost (cost sc "vertex cost")
      | Edge_costs -> pushf ecost (cost sc "edge cost")
      | Before_any -> err ln "content before any section: %S" (line_text sc)
      | Unknown s -> err (Hashtbl.find header_line s) "unknown section %s" s
  in
  while walk () || (next_line sc && (read_line (); true)) do () done;
  let section_err section fmt =
    err (Option.value ~default:0 (Hashtbl.find_opt header_line section)) fmt
  in
  let ne = eu.il in
  if ne = 0 then err 0 "no [graph] section";
  (* Vertex count: largest endpoint, or the [names]/[coords] length when
     given (covers isolated trailing vertices). *)
  let n = ref (max !n_names cx.fl) in
  for i = 0 to ne - 1 do
    n := max !n (max eu.iv.(i) ev.iv.(i) + 1)
  done;
  let n = !n in
  (* A [names] section of exactly the default names leaves the graph
     unnamed: [Graph.name] gives the same strings. *)
  let names =
    if !n_names = 0 then None
    else if !n_names <> n then
      section_err "[names]" "[names] arity mismatch (%d names, %d vertices)"
        !n_names n
    else if !defaults then None
    else Some (Array.of_list (List.rev !names))
  in
  let coords =
    if cx.fl = 0 then None
    else if cx.fl <> n then
      section_err "[coords]" "[coords] arity mismatch (%d coords, %d vertices)"
        cx.fl n
    else Some (Array.sub cx.fv 0 n, Array.sub cy.fv 0 n)
  in
  let graph =
    try
      Graph.of_columns ?names ?coords ~n ~src:(Array.sub eu.iv 0 ne)
        ~dst:(Array.sub ev.iv 0 ne) ~capacity:(Array.sub cap.fv 0 ne) ()
    with Invalid_argument m | Failure m -> section_err "[graph]" "%s" m
  in
  (* The first out-of-range id in file order is blamed, whatever its
     section. *)
  List.iter
    (fun (ln, r) ->
      match r with
      | Broken_vertex v when v >= n ->
        err ln "broken vertex id %d out of range (graph has %d vertices)" v n
      | Broken_edge e when e >= ne ->
        err ln "broken edge id %d out of range (graph has %d edges)" e ne
      | Demand d when d.Commodity.src >= n || d.Commodity.dst >= n ->
        err ln "demand endpoint out of range (graph has %d vertices)" n
      | _ -> ())
    (List.rev !ranged);
  let failure = Failure.none graph and demands = ref [] in
  List.iter
    (fun (_, r) ->
      match r with
      | Broken_vertex v -> failure.Failure.broken_vertices.(v) <- true
      | Broken_edge e -> failure.Failure.broken_edges.(e) <- true
      | Demand d -> demands := d :: !demands)
    !ranged;
  let costs c want section what =
    if c.fl = 0 then None
    else if c.fl <> want then
      section_err section "%s arity mismatch (%d costs, %d %s)" section c.fl
        want what
    else Some (Array.sub c.fv 0 want)
  in
  let vertex_cost = costs vcost n "[vertex_costs]" "vertices" in
  let edge_cost = costs ecost ne "[edge_costs]" "edges" in
  try
    Instance.make ?vertex_cost ?edge_cost ~graph ~demands:!demands ~failure ()
  with Invalid_argument m | Failure m -> err 0 "%s" m

let of_string_result text =
  match parse text with
  | inst -> Ok inst
  | exception Parse_error e -> Error e

let of_string text = parse text

(* ---- solutions ----

   Same sectioned line format as instances, with a [routing] section of
   "demand <src> <dst> <amount>" lines each followed by the paths that
   serve it as "path <flow> <edge-id>*" lines.  The optional [cost]
   section carries the producer's claimed repair cost so [recover verify]
   can cross-check it against a recomputation.  The parser is
   deliberately lenient about semantics (negative or NaN flows,
   out-of-range ids, overfull edges all parse): feasibility is
   [Netrec_check]'s job — a corrupted solution must survive loading to
   be diagnosed. *)

let solution_to_string ?cost (sol : Instance.solution) =
  let buf = Buffer.create 1024 in
  let sep () = Buffer.add_char buf ' ' and eol () = Buffer.add_char buf '\n' in
  let line s = Buffer.add_string buf s; eol () in
  let id i = add_int buf i; eol () in
  line "[repaired_vertices]";
  List.iter id sol.Instance.repaired_vertices;
  line "[repaired_edges]";
  List.iter id sol.Instance.repaired_edges;
  (match cost with
  | Some c ->
    line "[cost]";
    add_float buf c;
    eol ()
  | None -> ());
  line "[routing]";
  List.iter
    (fun a ->
      let d = a.Routing.demand in
      Buffer.add_string buf "demand ";
      add_int buf d.Commodity.src; sep ();
      add_int buf d.Commodity.dst; sep ();
      add_float buf d.Commodity.amount; eol ();
      List.iter
        (fun (p, x) ->
          Buffer.add_string buf "path ";
          add_float buf x;
          List.iter (fun e -> sep (); add_int buf e) p;
          eol ())
        a.Routing.paths)
    sol.Instance.routing;
  Buffer.contents buf

let parse_solution text =
  let sc = scanner text in
  let rv = ref [] and re = ref [] and costs = ref [] in
  (* reversed; each demand with its (reversed) path list *)
  let assignments = ref [] in
  let current = ref "" in
  while next_line sc do
    let ln = sc.line in
    if is_header sc then
      match line_text sc with
      | "[repaired_vertices]" | "[repaired_edges]" | "[cost]" | "[routing]" as s ->
        current := s
      | s -> err ln "unknown section %s" s
    else
      match !current with
      | "[repaired_vertices]" -> rv := id_in sc "vertex id" sc.first sc.last :: !rv
      | "[repaired_edges]" -> re := id_in sc "edge id" sc.first sc.last :: !re
      | "[cost]" -> costs := float_in sc "cost" sc.first sc.last :: !costs
      | "[routing]" -> (
        split sc;
        match String.sub text sc.fs.(0) (sc.fe.(0) - sc.fs.(0)) with
        | "demand" when sc.nf = 4 ->
          let s = id_at sc 1 "vertex id" in
          let t = id_at sc 2 "vertex id" in
          let a = float_at sc 3 "demand amount" in
          if s = t then err ln "demand with equal endpoints %d" s;
          assignments :=
            ({ Commodity.src = s; dst = t; amount = a }, []) :: !assignments
        | "path" when sc.nf >= 2 -> (
          let x = float_at sc 1 "path flow" in
          let p = List.init (sc.nf - 2) (fun k -> id_at sc (k + 2) "edge id") in
          match !assignments with
          | [] -> err ln "path line before any demand line"
          | (d, paths) :: rest -> assignments := (d, (p, x) :: paths) :: rest)
        | _ ->
          err ln
            "expected \"demand <src> <dst> <amount>\" or \"path <flow> \
             <edge-id>*\", got %S"
            (line_text sc))
      | _ -> err ln "content before any section: %S" (line_text sc)
  done;
  let cost =
    match !costs with
    | [] -> None
    | [ c ] -> Some c
    | _ -> err 0 "[cost] section carries more than one value"
  in
  let routing =
    List.rev_map
      (fun (demand, paths) -> { Routing.demand; paths = List.rev paths })
      !assignments
  in
  ( { Instance.repaired_vertices = List.rev !rv;
      repaired_edges = List.rev !re;
      routing },
    cost )

let solution_of_string text = parse_solution text

let solution_of_string_result text =
  match parse_solution text with
  | sol -> Ok sol
  | exception Parse_error e -> Error e

let save path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string inst))

(* Read to the end of the file rather than by its length, so a pipe or a
   FIFO loads too. *)
let read_all path = In_channel.with_open_bin path In_channel.input_all

let load path = of_string (read_all path)

let save_solution ?cost path sol =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (solution_to_string ?cost sol))

let load_solution path = solution_of_string (read_all path)
