(** Structured tracing, counters and run reports for the solver stack.

    The collector records telemetry into {e per-domain} state: each
    OCaml domain that records gets its own tables (reached through
    domain-local storage, so hot entry points never take a lock), and
    readers merge across every domain that ever recorded.  Merged reads
    are intended for quiescent moments — after worker domains have been
    joined — and sum per-name aggregates, so a parallel run reports the
    same counter totals (and, for integral observations, bit-identical
    histogram quantiles) as the equivalent sequential one.  In the
    Chrome-trace export each domain's intervals appear on their own
    [tid] row.

    - {b spans}: hierarchical wall-clock timers.  [span "isp.iteration" f]
      runs [f], attributing its duration to the path formed by the
      currently open spans (["isp.solve/isp.iteration"]).  Per-path call
      counts, total and self (total minus children) time, and GC
      allocation deltas (minor/major words, compactions) are aggregated,
      and every individual interval is kept for the Chrome-trace export
      (up to a fixed buffer; see {!events_dropped}) unless
      {!set_intervals} turned that off.
    - {b counters}: monotonically increasing integers
      ([count "simplex.pivots"]).
    - {b gauges}: last/min/max of a sampled float
      ([gauge "isp.residual_demand" 12.5]).
    - {b histograms}: log-bucketed value distributions with p50/p90/p99
      ([observe "simplex.pivots_per_solve" 41.0]); see {!Histogram}.
    - {b progress events}: structured named events with float fields,
      ring-buffered per domain ([event "milp.incumbent" fields]) — the
      solver trajectory stream (incumbents, bounds, residual demand).

    When the collector is disabled (the default) every recording entry
    point is a single flag check with no allocation, so instrumentation
    can stay in hot paths (simplex pivots, Dinic phases) permanently.

    Exporters: an aligned text summary (reusing {!Netrec_util.Table}),
    a JSONL metrics dump (one metric object per line), a progress-only
    JSONL stream, and Chrome [trace_event] JSON loadable in
    [about:tracing] / Perfetto. *)

val enabled : unit -> bool
(** Whether the collector is currently recording. *)

val set_enabled : bool -> unit
(** Turn the collector on or off.  Turning it off does not clear
    already-collected data. *)

val set_intervals : bool -> unit
(** Keep (the default) or drop each span's individual interval.  Only
    {!chrome_trace} reads intervals, so a process that writes no Chrome
    trace turns them off and its memory stays flat however many spans it
    runs; span aggregates, counters, gauges, histograms and progress
    events are recorded either way. *)

val reset : unit -> unit
(** Drop all collected spans, counters, gauges, histograms, trace and
    progress events, close any dangling span stack, and restart the
    trace clock. *)

(** {1 Log-bucketed histograms}

    The pure bucketing core, exposed for property tests and reuse.  A
    positive value [v = m * 2^e] (mantissa via [Float.frexp], exact) is
    assigned to one of {!Histogram.sub_buckets} equal-width sub-buckets
    of its octave; non-positive (and NaN) values land in a dedicated
    underflow bucket.  Bucket edges are dyadic rationals, so quantiles
    depend only on the {e multiset} of observed values — merges across
    domains commute and [-j 1] / [-j N] runs of a deterministic workload
    export byte-identical quantiles.  Quantiles report the upper edge of
    the bucket holding the requested rank, clamped to the observed
    maximum: an overestimate by at most one bucket width
    (1/{!Histogram.sub_buckets} relative). *)
module Histogram : sig
  type t

  val sub_buckets : int
  (** Sub-buckets per power of two (bucket width 1/[sub_buckets]
      relative). *)

  val n_buckets : int
  (** Total bucket count including the underflow bucket. *)

  val create : unit -> t
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val min_value : t -> float
  (** Smallest observed value ([nan] when empty). *)

  val max_value : t -> float
  (** Largest observed value ([nan] when empty). *)

  val quantile : t -> float -> float
  (** [quantile h q] for [q] in [[0,1]]: upper edge of the bucket
      containing rank [ceil (q * count)], clamped to {!max_value};
      [q >= 1.0] returns {!max_value} exactly; [nan] when empty. *)

  val bucket_index : float -> int
  (** Bucket assignment of a value (0 is the underflow bucket). *)

  val bucket_upper : int -> float
  (** Upper edge of a bucket (a dyadic rational; [0.] for bucket 0). *)

  val merge_into : into:t -> t -> unit
  (** Add all of the second histogram's observations into [into]. *)

  val merge : t -> t -> t
  (** Fresh histogram holding both argument's observations. *)

  val copy : t -> t

  val equal : t -> t -> bool
  (** Same observation counts in every bucket, same count/sum/min/max.
      For integral observations this holds exactly whenever the two
      histograms saw the same multiset of values, in any order. *)

  val nonzero_buckets : t -> (int * int) list
  (** [(bucket index, count)] for every non-empty bucket, ascending. *)
end

(** {1 Recording} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] under [name], nested below the innermost
    open span.  Disabled mode: tail-calls [f] after one flag check.
    Exceptions propagate; the span is closed either way. *)

val timed : string -> (unit -> 'a) -> 'a * float
(** [timed name f] is [span name f] but additionally returns the
    measured wall-clock seconds, {e also when the collector is
    disabled} — the drop-in replacement for hand-rolled
    [Unix.gettimeofday] pairs, guaranteeing that reported tables and
    exported traces carry identical numbers. *)

val count : ?n:int -> string -> unit
(** [count name] adds [n] (default 1) to counter [name]. *)

val gauge : string -> float -> unit
(** [gauge name v] records a sample of gauge [name]. *)

val observe : string -> float -> unit
(** [observe name v] adds a sample to histogram [name]. *)

val event : string -> (string * float) list -> unit
(** [event name fields] appends a progress event to the recording
    domain's ring buffer, stamped with a globally ordered sequence
    number and seconds since the last {!reset}.  When a domain's ring
    is full the oldest events of that domain are overwritten (see
    {!event_ring_capacity} and {!progress_dropped}).  Disabled mode:
    one flag check — but note the {e arguments} are evaluated by the
    caller, so guard expensive field computations with {!enabled}. *)

val event_ring_capacity : int
(** Progress events retained per domain. *)

(** {1 Inspection} *)

type span_stat = {
  path : string;  (** ["parent/child"] nesting path *)
  calls : int;
  total_s : float;  (** cumulative wall seconds *)
  self_s : float;  (** [total_s] minus time spent in child spans *)
  minor_words : float;  (** GC minor words allocated inside the span *)
  major_words : float;  (** GC major words allocated inside the span *)
  compactions : int;  (** heap compactions triggered inside the span *)
}
(** GC fields are attributed {e inclusively}: a parent span's words
    include its children's (unlike [self_s] there is no self split). *)

val span_stats : unit -> span_stat list
(** Aggregated spans, sorted by [path] so exports are byte-stable
    between runs and diffs can align spans positionally.  Display
    callers wanting hottest-first must re-sort by [total_s]. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

type gauge_stat = { last : float; min : float; max : float; samples : int }

val gauges : unit -> (string * gauge_stat) list
(** All gauges, sorted by name.  [last] is the most recent sample in
    the global record order (cross-domain updates are sequenced). *)

val counter_value : string -> int
(** Current value of a counter (0 when never incremented), merged over
    every domain. *)

val domain_counter_value : string -> int
(** The calling domain's own share of a counter: what this domain has
    added to it.  Lock-free, and unaffected by work other domains run
    concurrently, so a delta of it around a sequential call measures
    exactly that call.  Disabled mode: [0] after one flag check (nothing
    is counted then, so such deltas stay exact). *)

type hist_stat = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val histogram : string -> hist_stat option
(** Merged cross-domain stats for one histogram, [None] when the name
    was never observed. *)

val histograms : unit -> (string * hist_stat) list
(** All histograms (merged across domains), sorted by name. *)

type progress_event = {
  name : string;
  t_s : float;  (** seconds since the last {!reset} *)
  dom : int;  (** recording domain id *)
  seq : int;  (** global sequence number (total order across domains) *)
  fields : (string * float) list;
}

val events : unit -> progress_event list
(** Retained progress events from every domain, sorted by [seq]. *)

val progress_dropped : unit -> int
(** Progress events overwritten because a domain's ring was full. *)

val events_dropped : unit -> int
(** Trace intervals discarded because the trace buffer was full
    (aggregates are never dropped). *)

(** {1 GC snapshots} *)

type gc_snapshot = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  gc_compactions : int;
  heap_words : int;
}

val gc_snapshot : unit -> gc_snapshot
(** Current process-wide allocation totals ([Gc.quick_stat]: cheap, no
    heap walk).  Works regardless of {!enabled}. *)

val gc_delta : gc_snapshot -> gc_snapshot -> gc_snapshot
(** [gc_delta before after]: allocation counters as deltas;
    [heap_words] is [after]'s absolute value (heap size is a level, not
    a flow). *)

(** {1 Exporters} *)

val summary_tables : unit -> Netrec_util.Table.t list
(** Span / counter / gauge / histogram summaries as printable tables
    (spans hottest-first); empty tables are omitted. *)

val print_summary : unit -> unit
(** [Table.print] every table of {!summary_tables}. *)

val jsonl : unit -> string
(** One JSON object per line: [{"type":"counter",...}],
    [{"type":"gauge",...}], [{"type":"histogram",...}],
    [{"type":"span",...}], [{"type":"event",...}]. *)

val events_jsonl : unit -> string
(** Progress events only, one [{"type":"event",...}] object per line
    with the event's fields inlined at the top level — extractable with
    line-oriented tools (sed → gnuplot) without a JSON parser. *)

val metrics_json : unit -> string
(** A single JSON object
    [{"counters":{..},"gauges":{..},"histograms":{..},"progress":{..}}]
    — the payload embedded in the benchmark's [BENCH_metrics.json].
    Spans (wall clock and allocation per call path) are left out: they
    change on every run, and {!jsonl}, {!chrome_trace} and
    {!summary_tables} export them.
    [progress] is a summary, not the raw stream ({!events_jsonl} has
    that): [{"events":N,"dropped":D,"by_name":{"isp.residual":n,..}}]
    counts the retained events, the overwritten ones, and the retained
    events per name (sorted). *)

val chrome_trace : unit -> string
(** Chrome [trace_event] JSON (complete ["ph":"X"] events, microsecond
    timestamps relative to the last {!reset}). *)

val write_jsonl : string -> unit
(** Write {!jsonl} to a file. *)

val write_events : string -> unit
(** Write {!events_jsonl} to a file. *)

val write_chrome_trace : string -> unit
(** Write {!chrome_trace} to a file. *)
