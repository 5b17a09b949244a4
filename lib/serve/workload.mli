(** Deterministic closed-loop workload driver for {!Server}.

    Models the repeated, popularity-skewed request stream the serving
    layer exists for: a catalog of distinct query templates is sampled
    with Zipf(s) popularity (rank 0 most popular), [concurrency] requests
    are kept outstanding per round (submitted together, then drained —
    a closed loop), and every response is recorded. The request sequence
    depends only on [seed], [zipf_s], [requests] and the catalog — never
    on server behaviour — so two passes over the same workload issue
    identical requests (the warm-vs-cold comparison the benchmark
    relies on). *)

type config = {
  requests : int;  (** total requests to issue *)
  concurrency : int;  (** outstanding requests per closed-loop round *)
  zipf_s : float;  (** Zipf skew; 0 = uniform popularity *)
  seed : int;  (** workload RNG seed (independent of query seeds) *)
}

type report = {
  issued : int;
  served : int;
  rejected : int;  (** backpressure rejections (not retried) *)
  degraded : int;  (** deadline-degraded responses *)
  hits : int;  (** responses served from cache *)
  elapsed : float;
  throughput : float;  (** served / elapsed, requests per clock unit *)
  mean_latency : float;
  p50 : float;
  p95 : float;
  p99 : float;  (** latency percentiles over served requests *)
  hit_rate : float;  (** hits / served *)
  rejection_rate : float;  (** rejected / issued *)
}

val zipf_cdf : s:float -> n:int -> float array
(** CDF of the Zipf(s) popularity law over ranks 0..n-1
    (P(rank r) ∝ 1/(r+1)^s). Requires [n ≥ 1] and [s ≥ 0]. *)

val zipf_sample : Mde_prob.Rng.t -> float array -> int
(** Inverse-CDF sample of a rank. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile of an unsorted sample. Raises
    [Invalid_argument] on an empty sample array — a real branch, not an
    assert, so it holds under [--profile noassert] too (an empty sample
    has no ranks; the old behaviour silently returned [nan]). *)

val percentiles : float array -> float array -> float array
(** Several nearest-rank percentiles off a single sort; element [i]
    equals [percentile xs qs.(i)] exactly (the report's p50/p95/p99 are
    computed this way rather than with three sorts). Raises
    [Invalid_argument] on an empty sample array, like {!percentile};
    the reports below keep their documented [nan] percentiles when
    nothing was served by not consulting it. *)

(** {2 Open loop}

    The closed loop above caps outstanding requests at [concurrency],
    so it can never overload the server — it measures best-case
    latency, not behaviour under pressure. The open loop instead fixes
    an {e offered load}: arrivals follow a Poisson process at [rate]
    requests per clock second, submitted when their arrival time comes
    {e whether or not} earlier requests completed. When offered load
    exceeds capacity, due arrivals bunch into bursts that fill the
    bounded queues and the target sheds — which is the regime the
    latency-under-load curves in [bench/BENCH_serve.json] record. *)

type open_config = {
  arrivals : int;  (** total arrivals to generate *)
  rate : float;  (** offered load: mean arrivals per clock second (> 0) *)
  zipf_s : float;  (** Zipf skew of catalog popularity *)
  seed : int;  (** fixes the whole arrival process *)
}

type open_report = {
  offered : int;  (** arrivals issued *)
  offered_rate : float;  (** [config.rate], echoed *)
  served : int;
  shed : int;  (** dropped at admission (backpressure or typed shed) *)
  degraded : int;
  hits : int;
  elapsed : float;
  throughput : float;  (** served / elapsed — saturates at capacity *)
  mean_latency : float;
  p50 : float;
  p95 : float;
  p99 : float;  (** latency percentiles over served requests; [nan] if none *)
  shed_rate : float;  (** shed / offered *)
}

val run_open :
  ?clock:(unit -> float) ->
  Target.t ->
  catalog:Server.request array ->
  open_config ->
  open_report * Server.response option array
(** Drive the target with a Poisson/Zipf open-loop arrival stream.
    The arrival schedule (interarrival gaps and catalog picks) is drawn
    entirely from [seed] before the first submission, so two runs at
    the same seed offer the identical request sequence regardless of
    target behaviour; only {e which} arrivals get shed depends on
    timing. Element [i] of the response array answers the i-th arrival
    ([None] if it was shed). The driver spins on [clock] while waiting
    for the next arrival (it has nothing else to do — drains happen
    whenever work is outstanding), so a low-rate run burns a core for
    its duration; benchmark configs keep durations in seconds. Raises
    [Invalid_argument] on an empty catalog, [arrivals < 1] or a
    non-positive [rate]. *)

val run :
  ?clock:(unit -> float) ->
  Target.t ->
  catalog:Server.request array ->
  config ->
  report * Server.response option array
(** Drive the target (closed loop); element [i] of the returned array is
    the response to the i-th issued request ([None] if it was rejected
    or shed). [clock]
    (default {!Mde_obs.Clock.wall} — elapsed wall time, so throughput is
    real requests-per-second rather than the per-CPU-second figure the
    old [Sys.time] default produced) times throughput only; latencies
    come from the server's own clock. Raises [Invalid_argument] on an
    empty catalog or non-positive [requests]/[concurrency]. *)
