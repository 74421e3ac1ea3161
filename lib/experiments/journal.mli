(** Crash-safe experiment journals: append-only JSONL measurement logs
    that let an interrupted figure sweep resume where it died.

    A journal records one {e cell} per (point, run, algorithm)
    measurement and a {e done marker} once every cell of a (point, run)
    pair has been written.  Lines are appended and flushed as soon as a
    pair completes, so a [SIGKILL] loses at most the in-flight pair; on
    restart, {!with_run} replays completed pairs from the journal instead
    of recomputing them (a pair whose cells were written but whose done
    marker was not is recomputed — partial pairs are never trusted).

    File format ([netrec-journal/1]): the first line is the literal
    format tag, the second the sweep's settings; every other line is a
    flat JSON object whose values are strings or numbers (printed with
    [%.17g], so [nan], [-nan], [inf] and [-inf] can appear; they are
    read through
    [Netrec_obs.Metrics_diff.Json.parse ~non_finite:true]) —

    {v
    netrec-journal/1
    {"type":"settings","opt_nodes":800}
    {"type":"cell","point":"fig4:pairs=3","run":1,"alg":"ISP","repairs_total":23,...}
    {"type":"done","point":"fig4:pairs=3","run":1}
    v}

    Unparseable lines (e.g. a line truncated by the crash) are skipped on
    load; duplicate cells resolve last-wins.  Field names are the
    caller's, except the reserved keys [type], [point], [run], [alg]. *)

type t

type cells = (string * (string * float) list) list
(** Per-(point, run) payload: [(algorithm, fields)] in execution order. *)

val create : opt_nodes:int -> string -> t
(** Open (or create) a journal at the given path, loading any completed
    cells it already holds.  A new journal records [opt_nodes], the
    Figs. 3–6 OPT budget, in its settings line.  Increments the
    [journal.runs_resumed] counter by the number of completed pairs
    found.
    @raise Failure, before anything is appended, when the file exists
    but carries a different format tag, or records no OPT budget or a
    different one: its cells' OPT column would not be this run's. *)

val close : t -> unit

val completed : t -> point:string -> run:int -> cells option
(** The recorded cells of a (point, run) pair, iff its done marker was
    written. *)

val record : t -> point:string -> run:int -> cells -> unit
(** Append the pair's cells plus its done marker and flush. *)

val with_run : t option -> point:string -> run:int -> (unit -> cells) -> cells
(** The resume primitive the figure harnesses use: replay the pair from
    the journal when complete ([journal.cells_skipped]), otherwise
    compute it and {!record} the result ([journal.cells_recorded]).
    [None] journals just compute.  Anything consuming the random-number
    stream must happen {e outside} the callback, or skipping would
    desynchronize later runs. *)
