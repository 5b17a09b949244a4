(** LRU + TTL memo store for served query results.

    Haas §2.3 develops result caching because simulation queries arrive
    {e repeatedly}; this is the serving-layer counterpart of
    {!Mde_composite.Result_cache}. Entries are keyed by a canonical query
    fingerprint (query kind, parameters, seed — see {!Server.fingerprint}),
    so a hit returns a value bit-identical to recomputation. Recency is
    updated on every hit; capacity overflow evicts the least recently used
    entry; entries older than the TTL expire lazily on lookup. All
    bookkeeping (hits, misses, evictions, expirations, admission
    rejections) is counted exactly.

    The store itself is policy-free: {!add} takes the admission decision
    as an argument, and {!class_statistics}/{!pays_off} translate observed
    per-query-class costs into the paper's g(α) work-variance theory so a
    caller can make that decision cost-aware. *)

type 'a t
(** A mutable cache holding values of type ['a] keyed by fingerprint. *)

type counters = {
  hits : int;
  misses : int;  (** includes lookups that found only an expired entry *)
  evictions : int;  (** LRU evictions due to capacity *)
  expirations : int;  (** entries dropped because their TTL had passed *)
  admission_rejections : int;  (** [add ~admit:false] calls *)
}

val create :
  ?obs:Mde_obs.t ->
  ?capacity:int ->
  ?ttl:float ->
  ?clock:(unit -> float) ->
  unit ->
  'a t
(** [create ~capacity ~ttl ~clock ()] — an empty cache. [capacity]
    (default 256, ≥ 1) bounds the entry count; [ttl] (default [infinity],
    > 0) is the per-entry lifetime in [clock] units; [clock] (default
    {!Mde_obs.Clock.wall} — elapsed time, not the CPU seconds [Sys.time]
    counts) is injectable so TTL behaviour is deterministic under test.
    [obs] (default {!Mde_obs.default}) additionally mirrors the exact
    counters below into registry counters
    ([mde_serve_cache_{hits,misses,evictions,expirations,admission_rejections}_total])
    so one exporter sees the whole serving stack. *)

val find : 'a t -> string -> 'a option
(** Lookup; counts a hit (and refreshes recency) or a miss. A present but
    expired entry is removed and counted as one expiration plus one
    miss. *)

val add : 'a t -> ?admit:bool -> string -> 'a -> unit
(** Insert (or refresh) a binding, dropping the LRU entry if the cache
    is full — counted as an expiration when that entry's TTL had already
    passed, as a capacity eviction otherwise. With [~admit:false] the
    value is dropped instead and counted as an admission rejection — the
    hook for cost-aware admission control. *)

val mem : 'a t -> string -> bool
(** [true] iff the key is present and unexpired. Does not touch recency,
    and counts neither hit nor miss; a present-but-expired entry is
    removed and counted as one expiration, exactly as {!find} would, so
    counter totals do not depend on which probe noticed the expiry. *)

val length : 'a t -> int
val capacity : 'a t -> int

val keys_mru_first : 'a t -> string list
(** Current keys, most recently used first (the eviction order reversed) —
    for tests and diagnostics. *)

val counters : 'a t -> counters

val hit_rate : 'a t -> float
(** hits / (hits + misses); 0 before any lookup. *)

(** {2 Cost-aware admission via the g(α) theory}

    A served query class maps onto the paper's two-stage composite: M₁ is
    the expensive computation of a fresh result (cost c₁), M₂ is serving
    one response (cost c₂). V₁ is the variance of results across the
    class; V₂ — the covariance between answers that share one cached
    computation — shrinks as the class's exact-repeat fraction grows,
    because an exact repeat reuses its result with no statistical
    penalty. Caching the class pays off exactly when the achievable
    {!Mde_composite.Result_cache.efficiency_gain} exceeds 1. *)

val class_statistics :
  compute_cost:float ->
  serve_cost:float ->
  result_variance:float ->
  repeat_fraction:float ->
  Mde_composite.Result_cache.statistics
(** Build g(α) statistics for a query class from serving-layer
    observations: [compute_cost] = mean seconds to compute one fresh
    result (c₁), [serve_cost] = mean seconds to serve one response (c₂),
    [result_variance] = sample variance of results in the class (V₁),
    [repeat_fraction] ∈ [0,1] = fraction of requests that exactly repeat
    an earlier fingerprint (V₂ = V₁·(1 − repeat_fraction)). Inputs are
    clamped to safe ranges. *)

val pays_off : ?min_gain:float -> Mde_composite.Result_cache.statistics -> bool
(** [pays_off stats] — should results of this class be admitted?
    [true] iff [Result_cache.efficiency_gain stats >= min_gain]
    (default just above 1: any strict gain admits). *)

type variance_tracker
(** The running sample variance of a stream of results (Welford's
    one-pass update): the [result_variance] input of
    {!class_statistics}, per server query class or session stream. *)

val variance_tracker : unit -> variance_tracker
val track : variance_tracker -> float -> unit

val sample_variance : variance_tracker -> float
(** Unbiased sample variance of the results tracked so far; [0.] below
    two. *)
