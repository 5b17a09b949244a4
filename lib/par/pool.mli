(** A persistent pool of worker domains for data-parallel array
    operations.

    This is the execution substrate for the replication-heavy layers:
    Monte Carlo repetitions ({!Mde_mcdb}), the map phase of MapReduce
    jobs ({!Mde_mapred}), and the two-stage pilot ({!Mde_composite}) all
    fan independent units of work out over the pool.

    Every fan-out is one flat batch of independent items. The pool
    keeps its open batches in one FIFO; each batch carries an atomic
    chunk cursor, and the workers and the submitting domain claim its
    chunks from that cursor. A submitter claims chunks of its own batch
    first and then waits only for the chunks other domains are already
    running, so a work item may itself submit to the same pool. Domains
    are spawned once — use {!shared} for a process-wide pool reused
    across calls — and batches are split into chunks sized adaptively
    from the measured per-item latency of each call {e site}; batches
    too small to pay for a fan-out run sequentially on the caller
    instead.

    Determinism contract: the pool never changes {e what} is computed,
    only {e where}. Callers must make each work item self-contained — in
    particular, give every item its own RNG stream (via
    {!Mde_prob.Rng.split_n}) {e before} submitting — and the pool
    guarantees result [i] of {!parallel_map} is exactly [f a.(i)], so a
    parallel run is bit-identical to the sequential run of the same
    code. All entry points take the pool optionally and default to
    plain sequential execution, so existing call sites are unchanged.

    Observability: {!create} reads {!Mde_obs.default} and, when a live
    registry is installed, records per-domain task counts
    ([mde_pool_tasks_total{domain=...}], domain 0 being the submitting
    caller), batch counts ([mde_pool_batches_total],
    [mde_pool_seq_batches_total]), per-chunk wall latency by site
    ([mde_pool_chunk_seconds{site=...}]) and the last adaptive chunk
    size ([mde_pool_chunk_size{site=...}]). Metrics never touch the
    work items, so instrumented runs stay bit-identical; with the
    default no-op registry the recording sites cost one branch.
    {!stats} exposes always-on plain counters independent of the
    registry. *)

type t
(** A pool of worker domains plus the calling domain. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] starts a pool of [domains] total domains:
    [domains - 1] spawned workers plus the submitting domain, which
    claims chunks of each batch it submits. [domains] defaults to
    [Domain.recommended_domain_count ()]; [domains = 1] spawns nothing
    and runs everything sequentially on the caller. Raises
    [Invalid_argument] if [domains < 1]. *)

val shared : ?domains:int -> unit -> t
(** [shared ~domains ()] returns a process-wide pool of that size,
    creating it on first use and reusing it afterwards — the cure for
    paths that used to pay a domain spawn per call. Shared pools are
    shut down via [at_exit]; callers must {e not} {!shutdown} them.
    Distinct sizes get distinct pools. Raises [Invalid_argument] if
    [domains < 1]. *)

val domains : t -> int
(** Total parallelism (workers + caller). *)

val shutdown : t -> unit
(** Drain outstanding work, stop and join the worker domains.
    Idempotent. Submitting to a shut-down pool raises
    [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] brackets [create]/[shutdown] around [f], shutting the
    pool down even if [f] raises. Prefer {!shared} in long-lived or
    repeatedly-invoked paths: a domain spawn costs milliseconds. *)

val parallel_map :
  t -> ?site:string -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f a] is [Array.map f a] with the applications of
    [f] distributed over the pool in contiguous chunks. [chunk] forces
    the chunk size; otherwise it is sized adaptively from the measured
    per-item latency of [site] (a label naming the kind of work,
    default ["default"]) so each chunk lands near 10ms of work, and
    batches whose total estimated work is below the fan-out crossover
    run sequentially on the caller. If any application raises, the
    first exception (in completion order) is re-raised on the caller
    after the batch drains; the pool remains usable. Raises
    [Invalid_argument] if [chunk < 1], on any pool size. *)

val parallel_init :
  t -> ?site:string -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init pool n f] is [Array.init n f], distributed as in
    {!parallel_map}. Unlike [Array.init], the evaluation order of [f]
    is unspecified — each call must depend only on its index. Results
    are written directly into the final array (no boxing pass). *)

val parallel_iter : t -> ?site:string -> ?chunk:int -> int -> (int -> unit) -> unit
(** [parallel_iter pool n f] runs [f i] for every [i] in [[0, n)],
    distributed as in {!parallel_init} but with no result array — the
    fan-out for pure side-effect sweeps (chunked fills of preallocated
    storage). Evaluation order is unspecified; each call must touch only
    state owned by its index. Exceptions and validation behave exactly
    as {!parallel_map}. *)

val map : ?pool:t -> ?site:string -> ('a -> 'b) -> 'a array -> 'b array
(** [map ?pool f a]: {!parallel_map} when [pool] is given, [Array.map]
    otherwise — the form the library layers use for their [?pool]
    pass-through arguments. *)

val init : ?pool:t -> ?site:string -> int -> (int -> 'a) -> 'a array
(** [init ?pool n f]: {!parallel_init} or [Array.init]. *)

val iter : ?pool:t -> ?site:string -> int -> (int -> unit) -> unit
(** [iter ?pool n f]: {!parallel_iter} or a plain [for] loop. *)

val estimated_item_seconds : t -> site:string -> float option
(** The pool's current per-item latency estimate for [site] (EWMA of
    measured chunk timings), or [None] before the first measured
    batch. Exposed for diagnostics and benchmarks. *)

type stats = {
  stat_domains : int;  (** total parallelism of the pool *)
  batches : int;  (** batches fanned out over the pool *)
  seq_batches : int;
      (** batches run sequentially on the caller (1-domain pool, single
          item, or below the measured crossover) *)
  tasks : int array;  (** chunks executed, per domain (0 = any submitter) *)
}

val stats : t -> stats
(** A snapshot of the pool's always-on counters, independent of the
    {!Mde_obs} registry. *)
