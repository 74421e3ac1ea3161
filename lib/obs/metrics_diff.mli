(** Regression comparison and validation of [BENCH_metrics.json]
    documents — the engine behind [recover metrics diff],
    [recover metrics validate] and [scripts/check_perf.sh].

    Only deterministic numbers are gated (the thresholds are fixed):
    - {b gate blocks} ([lp_gate], [xl_gate], [sched_gate], [work_gate]:
      solver verdicts and work on pinned scenarios): drift of a gated key
      beyond 10% — in either direction — is flagged, every {e hard
      invariant} ([opt.proved = 1], [xl.certified = 1], regret within
      5%, [shard_caida.delegated = 1], ...) must hold in the current run
      whatever the baseline says, and a baseline key missing from the
      current block is a regression;
    - {b work histograms} (p50/p90/p99 of every histogram whose name does
      not end in [_ms]) are gated by the same 10% drift either way, and a
      quantile that leaves 0 drifts infinitely;
    - {b counters} only print a note beyond 25% drift.

    Wall-clock histograms ([_ms]) are printed but never gated: perfbench's
    noise-bounded medians are the only timings that back a claim.
    Workload-shaped sections (histograms, counters) are only compared
    when both documents carry the same ["mode"] — a quick bench and a
    full bench observe different work distributions.  The gate blocks
    are always compared.

    Every gate requirement is one row of {!gates} (or of the run-wide
    rules behind {!validate}); {!diff} and {!validate} are its only
    readers, so adding a key to a gate block means editing its producer
    ([Netrec_experiments.Gates]) and one row here. *)

(** Dependency-free JSON representation and parser (the repo vendors no
    JSON library; documents here are small). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val parse : ?non_finite:bool -> string -> t
  (** Full-document parse; raises {!Parse_error} with a byte offset on
      malformed input (including trailing garbage).  With [~non_finite:true]
      a number may also be exactly [nan], [-nan], [inf] or [-inf] (what
      [%.17g] prints for non-finite floats); the default is strict JSON. *)

  val escape : string -> string
  (** The body of a JSON string literal for any byte string: the double
      quote, the backslash and every control byte below 0x20 are escaped
      (newline, carriage return and tab by their letters, the others as
      [\u00XX]), other bytes are copied, so {!parse} reads the literal
      back to the same string.  The one escaper of every JSON writer in
      the repo: the [Obs] exporters and the experiment journal. *)

  val member : string -> t -> t option
  (** Object field lookup; [None] on non-objects. *)

  val obj_members : t -> (string * t) list
  val arr_items : t -> t list
  val number : t -> float option
  val string_val : t -> string option
end

type report = {
  lines : string list;  (** full per-metric report, in section order *)
  regressions : string list;  (** failures only; empty means pass *)
}

(** {1 The gate table} *)

val schema : string
(** The schema tag of the documents this module reads and the bench
    harness writes (["netrec-bench-metrics/5"]). *)

type bound =
  | Present  (** the key exists (any number) *)
  | Positive  (** > 0: the counter is live *)
  | Eq of float
  | At_most of float
  | At_least of float

type gate = {
  block : string;  (** top-level member, e.g. ["lp_gate"] *)
  invariants : (string * bound) list;
      (** hard invariants, checked on every current run *)
  drift : string list;
      (** deterministic keys gated on 10% drift either way *)
  live : string list;  (** keys that must be > 0 *)
  present : string list;  (** keys that must exist (may be 0) *)
}

val gates : gate list
(** One row per gate block: [lp_gate], [xl_gate], [sched_gate],
    [work_gate]. *)

val block_failures : gate -> Json.t -> string list
(** Every requirement of the row that a block (a JSON object) fails:
    invariants that do not hold, live keys not > 0, drift and present
    keys missing.  Each failure names its key; empty means the block
    passes.  {!validate} runs exactly this on each block. *)

(** {1 Readers} *)

val diff : base:Json.t -> current:Json.t -> report
(** Compare two parsed metrics documents. *)

val diff_files : base:string -> current:string -> report
(** Read, parse and {!diff} two files.  An unreadable or unparsable
    file becomes a regression in the returned report rather than an
    exception, so callers get uniform exit semantics. *)

val validate : Json.t -> report
(** Check one document on its own: the {!schema} tag, every {!gates}
    row (invariants hold, live keys > 0, drift and present keys exist),
    the run-wide counters, gauges, histograms (count > 0 plus the
    min/max/p50/p90/p99 keys) and progress summary ([isp.residual]
    events recorded).  Each failure names its key. *)

val validate_file : string -> report
(** Read, parse and {!validate} one file; an unreadable or unparsable
    file is a failure in the report, never an exception. *)

val report_to_string : report -> string
(** Printable report: all lines, then a [result:] trailer repeating the
    regressions. *)
