(** Regression comparison and validation of [BENCH_metrics.json]
    documents — the engine behind [recover metrics diff],
    [recover metrics validate] and [scripts/check_perf.sh].

    Three threshold regimes, reflecting how reproducible each section
    is:
    - {b wall-clock benchmarks} gate on {!config.tolerance} {e and} an
      absolute floor ({!config.abs_floor_ms}) so sub-millisecond
      wobble on fast benchmarks never fails a run;
    - {b gate blocks} ([lp_gate], [xl_gate], [sched_gate]: solver work
      on pinned scenarios) are deterministic, so drift of a gated key
      beyond {!config.lp_tolerance} — in either direction — is flagged,
      every {e hard invariant} ([opt.proved = 1], [xl.certified = 1],
      regret within 5%, ...) must hold in the current run whatever the
      baseline says, and a baseline key missing from the current block
      is a regression;
    - {b histogram quantiles} (p50/p90/p99 per metric) gate on
      {!config.quantile_tolerance}; wall-clock histograms (names ending
      in [_ms]) additionally require the absolute floor.

    Workload-shaped sections (histograms, counters) are only compared
    when both documents carry the same ["mode"] — a quick bench and a
    full bench observe different work distributions, and comparing
    their quantiles would produce meaningless failures.  Benchmarks and
    the gate blocks are always compared.

    Every gate requirement is one row of {!gates} (or of the run-wide
    rules behind {!validate}); {!diff} and {!validate} are its only
    readers, so adding a key to a gate block means editing its producer
    in the bench harness and one row here. *)

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

  val parse : string -> t
  (** Full-document parse; raises {!Parse_error} with a byte offset on
      malformed input (including trailing garbage). *)

  val member : string -> t -> t option
  (** Object field lookup; [None] on non-objects. *)

  val obj_members : t -> (string * t) list
  val arr_items : t -> t list
  val number : t -> float option
  val string_val : t -> string option
end

type config = {
  tolerance : float;  (** wall-clock benchmark gate, fraction (0.25) *)
  quantile_tolerance : float;  (** histogram quantile gate (0.10) *)
  lp_tolerance : float;  (** deterministic counter drift gate (0.10) *)
  abs_floor_ms : float;  (** ignore wall-clock drift below this (1.0) *)
}

val default_config : config

type report = {
  lines : string list;  (** full per-metric report, in section order *)
  regressions : string list;  (** failures only; empty means pass *)
}

(** {1 The gate table} *)

val schema : string
(** The schema tag of the documents this module reads and the bench
    harness writes (["netrec-bench-metrics/3"]). *)

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
      (** deterministic keys gated on {!config.lp_tolerance} drift *)
  live : string list;  (** keys that must be > 0 *)
  present : string list;  (** keys that must exist (may be 0) *)
}

val gates : gate list
(** One row per gate block: [lp_gate], [xl_gate], [sched_gate]. *)

(** {1 Readers} *)

val diff : config -> base:Json.t -> current:Json.t -> report
(** Compare two parsed metrics documents. *)

val diff_files : config -> base:string -> current:string -> report
(** Read, parse and {!diff} two files.  An unreadable or unparsable
    file becomes a regression in the returned report rather than an
    exception, so callers get uniform exit semantics. *)

val validate : Json.t -> report
(** Check one document on its own: the {!schema} tag, every {!gates}
    row (invariants hold, live keys > 0, drift and present keys exist),
    the run-wide counters, gauges, histograms (count > 0 plus the
    min/max/p50/p90/p99 keys) and progress summary ([isp.residual]
    events recorded), the serve block for the [default]/[quick]/[serve]
    modes, and path-sorted spans.  Each failure names its key. *)

val validate_file : string -> report
(** Read, parse and {!validate} one file; an unreadable or unparsable
    file is a failure in the report, never an exception. *)

val report_to_string : report -> string
(** Printable report: all lines, then a [result:] trailer repeating the
    regressions. *)
