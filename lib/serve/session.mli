(** Progressive-refinement query sessions: the "querying during a
    simulation" workload (paper §2) as a long-lived engine over any
    {!Target}.

    A one-shot server answers a request once, at its full replication
    budget. A session instead keeps queries {e open}: {!open_query}
    returns a handle whose estimate re-emits with a tighter confidence
    interval after every incremental replication batch; {!watch}
    subscribes a callback that fires whenever new replications land for
    its model; and {!tick} spends a fixed replication budget per round,
    chosen by a planner — the GenIE-style budgeted {!Explore} planner
    picks the (handle, reps) batch with the best expected CI shrinkage
    per fresh replication, {!Round_robin} spreads the budget uniformly
    (the baseline the [--session] bench compares against).

    {b One store per refinement key.} Handles and watchers with the
    same {!Target.refinement_key} (same model, kind parameters and seed
    — any rep budget) share one store: the landed prefix of a sampled
    stream, or the levels a composite was served at so far. A batch
    first adopts what the store holds past the handle's cursor for free
    — the landed samples, or the whole batch when the level it reaches
    was already served — then lands the remainder: drawn fresh through
    {!Target.refine}, or re-served at the new level. The same rule
    prices a batch and runs it. The explorer prices the split with the
    two-stage result-cache theory
    ({!Mde_composite.Result_cache}): each candidate batch's statistics
    — unit fresh-rep cost, zero reuse cost, the store's observed result
    variance, the batch's cached share as the repeat fraction — go
    through {!Cache.class_statistics}, and the resulting
    {!Mde_composite.Result_cache.efficiency_gain} stretches the
    effective budget of reuse-rich candidates, steering spend toward
    them exactly when g(α) says reuse pays.

    {b Bit-identity contract.} Replication streams are positional
    ({!Server.sample_batch}), so a handle driven to convergence holds
    {e exactly} the samples a one-shot serve at its total rep count
    draws — same estimate, same CI bits — pooled or not, whatever order
    the planner interleaved its batches in, on a single server or a
    sharded front, even across a {!retarget} to a resized front. The
    session has no estimator of its own: every update applies
    {!Server.estimate}, the one-shot estimator, to a stream prefix.
    Composite ([Composite_estimate]) handles have no positional streams
    (their RNG is consumed sequentially); the session refines them by
    re-serving at increasing [n] through the target, so their final
    level is one-shot-identical by construction. A composite
    refinement's budget charge is its cursor advance; the re-serve
    recomputes the whole prefix, so its {e wall time} grows with the
    number of levels — keep composite refinement coarse. *)

type planner =
  | Explore  (** budgeted explorer: argmax expected CI shrinkage per
                 effective fresh replication (default) *)
  | Round_robin  (** uniform rotation over unconverged handles — the
                     bench baseline *)

type config = {
  tick_reps : int;  (** replication budget each {!tick} may spend *)
  min_batch : int;  (** allocation granularity (reps per batch) *)
}
(** Reuse is priced as fresh unless {!Cache.pays_off} holds at its
    default threshold (any strict g(α) gain). *)

val default_config : config
(** [{ tick_reps = 64; min_batch = 8 }] *)

type update = {
  id : int;  (** the handle the update belongs to *)
  value : float;
  ci95 : (float * float) option;  (** [None] for composite estimates *)
  half_width : float;  (** of [ci95]; [nan] when [ci95 = None] *)
  reps_done : int;  (** replications behind this estimate *)
  reps_total : int;  (** the handle's convergence point *)
  reps_reused : int;  (** cumulative reps adopted from cached pilots *)
  converged : bool;  (** [reps_done = reps_total] *)
}

type t
type handle

val create :
  ?planner:planner -> ?config:config -> ?obs:Mde_obs.t -> Target.t -> t
(** A session over [target]. [obs] (default {!Mde_obs.default})
    registers [mde_session_open_handles] and [mde_session_watchers]
    gauges, [mde_session_ticks_total] and
    [mde_session_reps_total{kind="fresh"|"reused"}] counters, and an
    [mde_session_halfwidth] histogram observing every emitted CI half
    width. *)

val open_query : t -> Server.request -> handle
(** Open a progressive query: the request's rep count becomes the
    convergence point its estimate refines toward. Nothing executes
    until {!tick}. Raises [Invalid_argument] on malformed requests,
    exactly as {!Server.submit}. *)

val watch : t -> Server.request -> (update -> unit) -> handle
(** Subscribe to the request's store. A watcher's {e frontier} is the
    largest level its store can estimate it at, capped at the request's
    rep count: the landed replications, or the largest served composite
    level. The callback fires exactly once each time a landed batch or a
    newly served level moves the frontier past its last firing
    (adoption lands nothing, so fires nothing), with the estimate at the
    frontier. A watcher spends no budget of its own — it rides on
    batches that progressive handles pay for. *)

val id : handle -> int
(** The identifier {!update}s carry; unique within the session. *)

val estimate : t -> handle -> update option
(** The current estimate: at the cursor for a progressive handle, at
    the frontier for a watcher, sampled and composite alike. [None]
    below {!Server.floor_units} or before anything landed. Pure — does
    not execute. *)

val cancel : t -> handle -> unit
(** Close the handle: no further updates, no further budget. Its
    samples stay in the session store for key-mates. Idempotent. *)

val tick : t -> update list
(** Spend up to [config.tick_reps] replications, in [min_batch]-sized
    allocations chosen by the planner, and return the re-emitted
    estimates (at most one per progressive handle that advanced, in
    handle-id order). Watch callbacks fire during the tick. Spends less
    than the budget only when remaining demand is smaller. *)

val drive : ?max_ticks:int -> t -> update list
(** Tick until every open progressive handle converges; returns their
    final updates in handle-id order. These carry exactly the one-shot
    bits (see the contract above). Raises [Failure] after [max_ticks]
    (default 10_000) or when a tick makes no progress (e.g. the target
    drops every composite re-serve, or only watchers are open). *)

val retarget : t -> Target.t -> unit
(** Re-point the session at another target — e.g. a resized shard
    front with the same models registered. Open handles, stores and
    cursors survive as-is; refinement keys must resolve identically on
    the new target (same registrations ⇒ same fingerprints), which the
    next {!tick} checks by raising whatever the new target raises on
    unknown models. *)

type stats = {
  handles_open : int;  (** progressive handles neither cancelled nor converged *)
  watchers : int;  (** live watch subscriptions *)
  ticks : int;
  fresh_reps : int;  (** replications drawn through {!Target.refine} or re-served *)
  reused_reps : int;  (** replications adopted from cached pilots *)
}

val stats : t -> stats
(** [fresh_reps + reused_reps] equals the summed per-tick allocations —
    every allocated replication is accounted exactly once as fresh or
    reused. *)
