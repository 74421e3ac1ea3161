(** Plain-text serialization of recovery instances.

    A line-oriented sectioned format so instances can be saved from one
    tool run and re-analyzed by another (or shipped as bug reports):

    {v
    [graph]
    <u> <v> <capacity>          one line per edge
    [coords]                    optional, one "<x> <y>" line per vertex
    [names]                     optional, one name per vertex
    [demands]
    <src> <dst> <amount>
    [broken_vertices]
    <id> ...
    [broken_edges]
    <id> ...
    [vertex_costs]              optional, one float per vertex
    [edge_costs]                optional, one float per edge
    v}

    Sections may appear in any order, and a repeated section appends to
    the earlier one; an unknown section is rejected once content follows
    it.  A line is trimmed of [String.trim]'s whitespace, blank lines and
    lines starting with [#] are skipped, and fields split on spaces only
    (a tab inside a line is part of its field).  Ids use
    [int_of_string]'s syntax and numbers [float_of_string]'s (hex, [_],
    a leading [+], [inf]), with the same values: plain decimals are read
    in place, bit-identical to [float_of_string] (DESIGN §11), and every
    other token goes through the stdlib conversion.

    Beyond syntax, the parser rejects at the offending line: NaN in any
    numeric field; a negative capacity; a negative, zero or infinite
    demand amount; a demand whose endpoints are equal; a self-loop; a
    negative or infinite cost; a [graph] endpoint id at or above the
    text's length in bytes.  That last rule bounds every per-vertex
    array by the input's size (no encoded instance is refused: it spends
    more than one byte per vertex).  An infinite capacity or coordinate
    is legal.  Other ids are range-checked once the whole text is read.

    A [names] section that reads exactly [v0] ... [v(n-1)], the names
    {!to_string} writes for an unnamed graph, leaves the parsed graph
    unnamed: {!Graph.name} gives the same strings and {!to_string} the
    same bytes, and the graph holds no name strings.

    A record line in canonical form (fields one space apart, plain-digit
    ids, decimals of at most 15 significant digits) is read in one pass
    from its first byte to its newline; any other line, and every
    error, goes through the general line reader, so the language, the
    values and the errors are the same either way. *)

type parse_error = {
  line : int;
      (** 1-based line the error refers to, counting every ['\n']-separated
          piece of the text.  A bad record is blamed at its own line, and
          the first bad one in file order (for out-of-range ids too,
          whatever their section), at its first bad field.  Arity
          mismatches spanning a whole section point at the section's
          (first) header line, an unknown section at its header line;
          file-level errors (e.g. a missing [graph] section) use 0. *)
  msg : string;  (** human-readable description, no location prefix *)
}

exception Parse_error of parse_error
(** Raised by {!of_string} / {!load} on malformed input.  Registered with
    [Printexc] so uncaught copies still print the line number. *)

val to_string : Instance.t -> string
(** Serialize an instance (always writes every section but [coords],
    which only an embedded graph has).  Numbers print as [%.12g], so
    [to_string (of_string (to_string t)) = to_string t]. *)

val of_string : string -> Instance.t
(** Parse.  @raise Parse_error on malformed input. *)

val of_string_result : string -> (Instance.t, parse_error) result
(** Non-raising variant of {!of_string}. *)

val save : string -> Instance.t -> unit
(** Write {!to_string} to a file. *)

val load : string -> Instance.t
(** Read a file to its end and {!of_string} it; a pipe or a FIFO
    ([/dev/stdin], [<(...)]) loads too.  @raise Sys_error / Parse_error. *)

(** {1 Solutions}

    Same line-oriented scheme for the solution side, so [recover verify]
    can cross-check a saved plan against its instance:

    {v
    [repaired_vertices]
    <id> ...
    [repaired_edges]
    <id> ...
    [cost]                      optional, the producer's claimed repair cost
    [routing]
    demand <src> <dst> <amount>
    path <flow> <edge-id> ...   zero or more per preceding demand line
    v}

    The same scanner reads it, with the same number syntax.  Parsing
    checks syntax only (non-negative ids, numeric fields, distinct demand
    endpoints); it deliberately does {e not} validate feasibility —
    negative or NaN flows, a NaN cost, out-of-range ids or overfull edges
    all load fine and are diagnosed by [Netrec_check.certify], so
    corrupted solutions can be inspected. *)

val solution_to_string : ?cost:float -> Instance.solution -> string
(** Serialize a solution; [cost] adds the optional [\[cost\]] section. *)

val solution_of_string : string -> Instance.solution * float option
(** Parse a solution and its claimed cost (if present).
    @raise Parse_error on malformed input. *)

val solution_of_string_result :
  string -> (Instance.solution * float option, parse_error) result
(** Non-raising variant of {!solution_of_string}. *)

val save_solution : ?cost:float -> string -> Instance.solution -> unit
(** Write {!solution_to_string} to a file. *)

val load_solution : string -> Instance.solution * float option
(** Read a file (or a pipe) to its end and {!solution_of_string} it.
    @raise Sys_error / Parse_error. *)
