(** Bounded request queue with backpressure, micro-batching and deadline
    budgets — the execution stage of the serving layer.

    Requests enter through {!submit}; past the queue's high-water mark
    they are rejected immediately (backpressure) rather than queued
    without bound. {!drain} then executes everything queued: compatible
    requests (same [class_key]) are fused, in arrival order, into batches
    of at most [batch_size] and each batch runs as a single fan-out over
    {!Mde_par.Pool}. Work items must be self-contained (own RNG stream
    derived from the request seed), so by the pool's determinism contract
    a batched, pooled execution is bit-identical to running each item's
    closure directly.

    Deadlines: a request may carry a relative deadline (seconds on the
    scheduler's clock). The scheduler converts it to an absolute point at
    submission and, when the item is dispatched, hands the closure its
    remaining budget [time_left] (possibly ≤ 0 if the request sat in the
    queue past its deadline). Degradation policy — e.g. running fewer
    Monte Carlo replications to fit the budget — belongs to the caller's
    closure; the scheduler only accounts and forwards budgets. *)

type config = {
  queue_capacity : int;  (** high-water mark; submissions beyond it are rejected *)
  batch_size : int;  (** max compatible requests fused into one pool fan-out *)
}

val default_config : config
(** [{ queue_capacity = 64; batch_size = 8 }] *)

type 'a t

type 'a completion = {
  ticket : int;
  result : 'a;
  latency : float;  (** submission → batch completion, in clock units *)
}

type counters = {
  submitted : int;  (** accepted submissions *)
  rejected : int;  (** backpressure rejections *)
  completed : int;
  failed : int;  (** requests whose closure raised during {!drain} *)
  batches : int;  (** pool fan-outs executed *)
  abandoned : int;  (** accepted items never executed, dropped by {!shutdown} *)
}

val create :
  ?pool:Mde_par.Pool.t -> ?clock:(unit -> float) -> ?obs:Mde_obs.t -> config -> 'a t
(** Without [?pool], batches run sequentially on the caller (identical
    results, no parallelism). [clock] defaults to {!Mde_obs.Clock.wall} —
    elapsed wall time, so a deadline keeps draining while a request sits
    in the queue; the previous default, [Sys.time], counted CPU seconds
    and stood still whenever the process slept or waited. [obs] (default
    {!Mde_obs.default}) registers a queue-depth gauge
    ([mde_sched_queue_depth]), a batch-size histogram
    ([mde_sched_batch_size]) and a rejection counter
    ([mde_sched_rejections_total]). Raises [Invalid_argument] on
    non-positive capacity or batch size. *)

val submit :
  'a t ->
  class_key:string ->
  ?deadline:float ->
  (time_left:float option -> 'a) ->
  [ `Accepted of int | `Rejected ]
(** Enqueue a work item, or reject it if the queue is at its high-water
    mark. [`Accepted ticket] identifies the item in {!drain}'s
    completions. The closure runs on a pool domain: it must not mutate
    shared state. *)

val pending : 'a t -> int

val unanswered : 'a t -> int list
(** The tickets the last {!drain} or {!shutdown} ended without a
    completion — closures that raised, or queued items a shutdown
    abandoned — in ticket order. Each accepted ticket ends exactly once:
    in some drain's or shutdown's completions, or in this list. *)

val pool : 'a t -> Mde_par.Pool.t option
(** The pool batches fan out over, if any — the hook {!Server} uses to
    run out-of-band work (progressive-refinement replication batches) on
    the same domains as queued requests instead of threading a second
    copy of the pool through the stack. *)

val drain : 'a t -> 'a completion list
(** Execute every queued item (batching as described above) and return
    completions in ticket order. Empty queue returns [].

    Exception safety: every item's outcome is captured individually, so
    one raising closure cannot destroy accepted work. If any closure
    raises, the drain stops after that batch, the first exception (in
    ticket order within the batch) propagates with its backtrace, the
    unprocessed remainder of the queue is preserved, the failing
    request is counted in [counters.failed], and {e all} completions
    already collected — including the failing request's batch siblings
    — are delivered by the next [drain] call. *)

val shutdown : 'a t -> 'a completion list
(** Close the scheduler and deliver, in ticket order, any completions a
    failed {!drain} banked — work that was fully executed but whose
    results would otherwise be silently lost if the scheduler were
    dropped before the next drain. Queued items that never ran are
    dropped and counted in [counters.abandoned] (so every accepted
    submission is accounted exactly once as completed, failed or
    abandoned). Idempotent: later calls return []. After shutdown,
    {!submit} raises [Invalid_argument] and {!drain} returns []. *)

val counters : 'a t -> counters
