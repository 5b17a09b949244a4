(** The query-serving façade: typed requests over registered models,
    dispatched through {!Scheduler} (bounded queue, micro-batching,
    deadlines) and {!Cache} (LRU+TTL with cost-aware admission).

    Request lifecycle: [submit] validates the request, computes its
    canonical fingerprint and probes the cache — a hit completes
    immediately; a miss is enqueued (or rejected under backpressure).
    [drain] executes queued work in compatible micro-batches over the
    domain pool, updates per-class cost/variance/popularity statistics,
    and admits fresh results into the cache when the g(α) theory says the
    class pays off ({!Cache.pays_off}).

    One model × kind match draws the per-replication samples for both
    one-shot executions and {!sample_batch}, {!estimate} is the one
    estimator over them, and one match over kinds derives the cache
    fingerprint, the class key and the {!refinement_key}.

    Determinism contract: a served response carries exactly the value the
    direct library call produces for the same seed —
    [Mde_mcdb.Database.estimate], [Mde_mcdb.Database.monte_carlo] +
    [Estimator], [Mde_simsql.Chain.monte_carlo], or
    [Mde_composite.Result_cache.estimate] — whether it was computed cold,
    batched with other requests, run on a pool, or returned from cache.
    The one sanctioned divergence is deadline degradation: a degraded
    response equals the direct call with [reps_executed] (< requested)
    replications, is flagged [degraded = true], and is never admitted to
    the cache (so a later full-budget request cannot observe it). *)

type kind =
  | Mcdb_mean of { reps : int }
      (** mean + 95% CI of an MCDB query over [reps] Monte Carlo
          replications ({!Mde_mcdb.Database.estimate}) *)
  | Mcdb_tail of { reps : int; p : float }
      (** MCDB-R risk query: extreme p-quantile of the query-result
          distribution, with its order-statistic CI *)
  | Chain_mean of { steps : int; reps : int }
      (** mean + CI of a SimSQL chain query at version D[steps] over
          [reps] independent chain realizations *)
  | Composite_estimate of { n : int; alpha : float }
      (** two-stage RC estimate ({!Mde_composite.Result_cache.estimate}) *)

type request = {
  model : string;  (** a name registered below *)
  kind : kind;
  seed : int;  (** the RNG seed the direct library call would use *)
  deadline : float option;  (** relative seconds; see deadline contract *)
}

type cache_status = Hit | Miss

type response = {
  value : float;
  ci95 : (float * float) option;  (** [None] for composite estimates *)
  reps_requested : int;
  reps_executed : int;  (** < requested iff [degraded] *)
  degraded : bool;
  cache : cache_status;
  latency : float;  (** submission → availability, in clock units *)
}

type admission =
  | Admit_all
  | Cost_aware of { min_gain : float; warmup : int }
      (** admit a class's results only while fewer than [warmup]
          executions have been observed or once
          {!Cache.pays_off}[ ~min_gain] holds on its observed
          statistics *)

type t

val create :
  ?pool:Mde_par.Pool.t ->
  ?clock:(unit -> float) ->
  ?obs:Mde_obs.t ->
  ?cache_capacity:int ->
  ?cache_ttl:float ->
  ?scheduler:Scheduler.config ->
  ?admission:admission ->
  unit ->
  t
(** [admission] defaults to [Cost_aware { min_gain = 1.0 +. 1e-9;
    warmup = 3 }]. [clock] (default {!Mde_obs.Clock.wall}) is shared by
    the cache, the scheduler and the latency accounting; the wall-clock
    default means reported latencies include queueing and sleeping, which
    the previous [Sys.time] (CPU seconds) default silently excluded.
    [obs] (default {!Mde_obs.default}) is handed to the cache and
    scheduler and additionally registers per-request-class latency
    histograms ([mde_serve_latency_seconds{class=...}]), a degraded
    counter ([mde_serve_degraded_total]) and a cache-served counter
    ([mde_serve_cache_served_total]). *)

val register_mcdb :
  t -> name:string -> query:(Mde_relational.Catalog.t -> float) -> Mde_mcdb.Database.t -> unit
(** Serve [Mcdb_mean]/[Mcdb_tail] requests against this database. The
    query closure is identified by [name]; the database contributes
    {!Mde_mcdb.Database.fingerprint} to the cache key. *)

val register_mcdb_plan :
  t ->
  name:string ->
  table:string ->
  plan:Mde_mcdb.Bundle.plan ->
  Mde_mcdb.Database.t ->
  unit
(** Serve [Mcdb_mean]/[Mcdb_tail] requests through the columnar
    tuple-bundle engine ({!Mde_mcdb.Database.plan_samples}): one VG sweep
    builds the bundle, one fused pass runs the plan, versus one full
    database realization per repetition for {!register_mcdb}. Samples are
    bit-identical to the naive path for the same seed, so the two
    registrations answer identically — only the execution cost differs.
    The plan must aggregate into a single global group and name at least
    one aggregate (its first aggregate is the served value), and [table]
    must be a row-stable stochastic table of the database; violations
    raise [Invalid_argument] here or at execution. The plan contributes
    {!Mde_mcdb.Bundle.plan_fingerprint} to the cache key. *)

val register_chain :
  t -> name:string -> query:(Mde_simsql.Chain.state -> float) -> Mde_simsql.Chain.t -> unit

val register_composite :
  t -> name:string -> 'a Mde_composite.Result_cache.two_stage -> unit

val fingerprint : t -> request -> string
(** The canonical cache key: model fingerprint + kind + every parameter +
    seed. Distinct parameters give distinct fingerprints. Raises
    [Invalid_argument] on a malformed request, exactly as {!submit}
    does: an unregistered model, a kind the model cannot answer, or a
    parameter out of range. *)

val estimate : kind -> float array -> float * (float * float) option
(** The one estimator behind every served and progressive answer: value
    and 95% CI of a kind over its per-replication samples
    ({!Mde_mcdb.Estimator.of_samples}' mean for [Mcdb_mean]/[Chain_mean],
    {!Mde_mcdb.Estimator.tail_estimate} for [Mcdb_tail]). A {!Session}
    applies it to a stream prefix, so a converged session lands on the
    one-shot bits. Raises [Invalid_argument] for [Composite_estimate]
    and on the estimators' own preconditions. *)

val units_of : kind -> int
(** The request's total replication (or composite [n]) budget. *)

val floor_units : kind -> int
(** Smallest replication count the kind's estimator accepts — the
    degradation floor, and the first point a progressive session can
    emit an estimate at (2 for means and composites; ⌈1/min(p,1−p)⌉ for
    tail quantiles). *)

(** {2 Progressive-refinement hooks}

    What {!Session} builds on: replication streams are positional
    (stream [r] of a request depends only on the request seed and [r]),
    so an estimate over replications 0..n−1 can be grown one incremental
    batch at a time and still land, at convergence, on exactly the bits
    the one-shot execution produces. *)

val refinement_key : t -> request -> string
(** Identifies the request's replication {e stream}: model fingerprint +
    kind + seed + every parameter {e except} replication counts. Two
    requests with the same key and different rep budgets are prefixes of
    one another's sample sequences, so a session shares one growing
    sample store between them. Raises [Invalid_argument] on malformed
    requests, like {!submit}. *)

val sample_batch : t -> request -> lo:int -> hi:int -> float array
(** The per-replication query samples for stream indices [lo..hi-1] —
    bit-identical to elements [lo..hi-1] of the sample array any
    one-shot execution of the same model/kind/seed draws at a total
    ≥ [hi]. Runs immediately on the caller (through the scheduler's pool
    when it has one — pooled and sequential batches are bit-identical),
    bypassing queue, cache and class accounting: sessions do their own
    budget bookkeeping. Raises [Invalid_argument] on malformed requests,
    [lo < 0], [hi <= lo], or a [Composite_estimate] request (two-stage
    estimates consume their RNG sequentially and have no positional
    streams; sessions refine those by re-serving at increasing [n]). *)

val submit : t -> request -> [ `Queued of int | `Rejected ]
(** Validate, probe the cache, and either complete immediately (cache
    hit — the response is delivered by the next {!drain}) or enqueue.
    [`Rejected] is scheduler backpressure: queue at high-water mark.
    Raises [Invalid_argument] on malformed requests (unknown model,
    [reps < 2], [p] outside (0,1), [alpha] outside (0,1], negative
    deadline). *)

val drain : t -> (int * response) list
(** Execute queued work and deliver every completed response (including
    pending cache hits), in submission order. *)

val serve : t -> request -> [ `Served of response | `Rejected ]
(** [submit] + [drain] for a single request. *)

val shutdown : t -> (int * response) list
(** Close the server's scheduler ({!Scheduler.shutdown}) and deliver
    every response that is already available — pending cache hits plus
    completions a failed drain banked — without executing queued work
    (which is dropped and counted as abandoned). Call this instead of
    dropping a server on the floor after a drain raised: executed work
    is never silently lost. Idempotent; a later {!submit} that misses
    the cache raises [Invalid_argument]. *)

val unanswered : t -> int list
(** The ids of accepted requests the last {!drain} or {!shutdown} ended
    without a response — their execution raised, or the shutdown
    abandoned them ({!Scheduler.unanswered}) — even when that drain
    raised. Every accepted request ends exactly once: in some drain's or
    shutdown's responses, or here. *)

type stats = {
  served : int;
  rejected : int;
  degraded : int;
  cache : Cache.counters;
  scheduler : Scheduler.counters;
}

val stats : t -> stats
