(** Observability: the self-measurement substrate the serving stack needs
    before it can be steered.

    Haas's §2 systems assume the ecosystem can observe itself — Indemics
    queries a simulation {e while it runs}, and simulation-run
    optimization picks replication splits from {e measured} cost
    statistics. This library supplies the three primitives those loops
    need, with one design rule throughout: {b observability never changes
    an answer}. Metrics and spans read clocks and bump counters; they
    never touch an RNG stream or a result value, so an instrumented run
    is bit-identical to an uninstrumented one.

    {2 The registry}

    A {!type-t} holds named metrics — monotonic {!Counter}s, set-anywhere
    {!Gauge}s, and fixed-bucket {!Histogram}s with an exact-rank quantile
    readout — plus a buffer of completed {!type-span}s. Metric
    registration is idempotent: asking twice for the same (name, labels)
    pair returns the same cell, so independent subsystems (pool,
    scheduler, cache, estimators) can all write into one registry and one
    exporter sees everything.

    {2 The no-op registry}

    {!noop} is a registry whose metrics are shared stubs: every operation
    on them is a branch and a return — no allocation, no clock read, no
    lock. The process-wide {!default} registry starts as {!noop}, and the
    instrumented hot paths read it at construction time, so programs that
    never call {!set_default} pay nothing. Counters and gauges are
    lock-free ([Atomic]); histograms and the span buffer take a mutex and
    are safe to write from pool worker domains. *)

module Clock : sig
  type t = unit -> float
  (** A clock is any function returning seconds; the serving layer takes
      clocks as values so tests can inject deterministic ones. *)

  val wall : t
  (** Monotonic wall clock: seconds from an arbitrary origin on the
      system's nanosecond monotonic clock (bechamel's unboxed,
      allocation-free [Monotonic_clock]), so an interval is never
      negative and a sub-microsecond cache hit does not round to zero.
      This is the default clock everywhere — {e not} [Sys.time], which
      counts process CPU seconds and stands still while a request sleeps
      in a queue or a worker domain runs on another core. *)
end

val allocated_words : unit -> float
(** Words this domain allocated so far, minor heap included: the
    difference of two readings is a section's whole allocation.
    [Gc.minor_words ()] plus the direct major allocation ([major -
    promoted] from [Gc.counters]), without forcing a collection. On
    OCaml 5.1, [Gc.allocated_bytes] leaves out the current minor heap
    until the next minor collection (about 380 of the 3,000 words of a
    1,000-cell list). *)

type t
(** A metrics registry (or the {!noop} stub). *)

val create : unit -> t
(** A fresh live registry. *)

val noop : t
(** The shared no-op registry: every metric it hands out ignores writes
    and reads back zero; {!with_span} just runs its thunk. *)

val enabled : t -> bool
(** [false] exactly for {!noop} — the guard instrumented code uses to
    skip clock reads when observability is off. *)

val set_default : t -> unit

val default : unit -> t
(** The process-wide registry, initially {!noop}. Instrumented
    constructors ({!Mde_par.Pool.create}, [Serve.*.create],
    [Database.estimate]) read it when no explicit registry is passed, so
    call {!set_default} {e before} building the objects you want
    measured. *)

(** {1 Metrics} *)

module Counter : sig
  type t

  val incr : t -> unit

  val add : t -> int -> unit
  (** Raises [Invalid_argument] on a negative increment — counters are
      monotonic. *)

  val value : t -> int
  (** 0 on a no-op counter. *)
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val quantile : t -> float -> float
  (** Exact nearest-rank selection over the recorded buckets: the
      ⌈p·count⌉-th observation's bucket upper bound, clamped to the
      largest value actually observed (the overflow bucket reads back
      exactly that maximum). Deterministic for a given observation
      sequence; [nan] while the histogram is empty. Raises
      [Invalid_argument] unless 0 ≤ p ≤ 1. *)
end

val default_buckets : float array
(** Latency-shaped upper bounds, 1µs … 10s. An implicit +∞ overflow
    bucket always follows the last bound. *)

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string ->
  Histogram.t
(** Register (or fetch — registration is idempotent per (name, labels))
    a metric. Names must match [[a-zA-Z_:][a-zA-Z0-9_:]*] and label names
    [[a-zA-Z_][a-zA-Z0-9_]*], so the exporter is well-formed by
    construction; [buckets] must be strictly increasing. Raises
    [Invalid_argument] on a malformed name or on re-registering a name
    as a different metric type. *)

(** {1 Spans} *)

type span = { name : string; depth : int; start : float; stop : float }
(** One completed (or still-open, [stop = nan]) timed region. [depth] is
    the nesting level at entry. *)

val with_span : t -> ?clock:Clock.t -> name:string -> (unit -> 'a) -> 'a
(** [with_span t ~name f] records the start/stop of [f] on [clock]
    (default {!Clock.wall}) and returns [f ()], re-raising any exception
    after closing the span. Spans nest; the buffer keeps the first
    {!span_capacity} spans in {e flame order} (preorder: parents before
    their children) and counts the rest as dropped. On {!noop} this is
    exactly [f ()]. *)

val spans : t -> span list
(** The recorded spans, flame-ordered. *)

val spans_dropped : t -> int

val span_capacity : int

(** {1 Export} *)

module Export : sig
  val prometheus : t -> string
  (** Prometheus text exposition: [# HELP]/[# TYPE] comments, one line
      per sample, histograms as cumulative [_bucket{le=...}] series plus
      [_sum]/[_count]. Spans are not exported here (they are not
      metrics); use {!json}. *)

  val json : t -> string
  (** One JSON object: every metric (histograms with bucket counts and
      p50/p90/p95/p99 readouts), the span list, and the dropped-span
      count. Non-finite floats render as [null], matching the benchmark
      emitter. *)

  val validate_prometheus : string -> (unit, string) result
  (** Check every line of a text exposition: comments must be [# HELP] or
      [# TYPE], sample lines must be [name{labels} value] with a valid
      metric name, balanced quoted labels and a parseable value.
      [Error msg] pinpoints the first offending line — the CI gate for
      "the exporter never emits a malformed line". *)
end
