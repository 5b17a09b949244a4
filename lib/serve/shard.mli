(** The sharded serving front: N independent shards — each its own
    {!Cache} + {!Scheduler} over a slice of the shared pool — behind
    consistent-hash routing of canonical query fingerprints
    ({!Router}), cross-shard admission control with typed load
    shedding, and a federation catalog that routes each request to the
    cheapest registered backend able to answer it.

    {b Routing.} Every request has a canonical routing fingerprint
    ({!fingerprint} — backend-independent for federated models, so a
    logical query keeps its shard even when the catalog switches
    backends). The rendezvous router sends equal fingerprints to the
    same shard, which is what makes per-shard caches effective: all
    repeats of a query warm exactly one shard. Growing the front from
    [n] to [n+1] shards remaps only ≈K/(n+1) of K fingerprints
    ({!Router}), so most of the warmed cache survives a resize.

    {b Shedding.} Admission is two-level and always {e typed}: a shard
    whose scheduler is at its high-water mark sheds with
    [Shard_queue_full]; a front whose aggregate outstanding count hits
    [high_water] sheds with [Front_high_water]. A shed is a normal
    response path — counted in {!stats} and [mde_shard_shed_total],
    never an exception, never silent — so overload degrades one
    request at a time instead of sinking the whole front.

    {b Federation.} {!federate} publishes a logical model name backed
    by several registered backends that answer the same query
    bit-for-bit (e.g. a naive MCDB scan and its columnar bundle plan).
    The front first probes each backend once in static preference
    order (bundle plans before naive scans — one fused sweep beats one
    realization per repetition), then routes every subsequent request
    to the backend with the lowest observed mean execution latency.
    Because backends agree bit-for-bit, federation changes cost only,
    never answers.

    {b Determinism.} For a fixed seed the sharded front returns values
    bit-identical to a single-shard {!Server} over the same models:
    work closures derive everything from the request seed, routing
    only picks {e where} a closure runs, and shedding — the one
    sanctioned divergence — is typed and accounted. *)

type t

type shed_reason =
  | Shard_queue_full  (** the routed shard's scheduler is at its high-water mark *)
  | Front_high_water  (** the front's aggregate outstanding count is at [high_water] *)

type shed = {
  shard : int;  (** the shard the request routed to *)
  reason : shed_reason;
  depth : int;  (** the queue depth that triggered the shed *)
  limit : int;  (** the high-water mark it hit *)
}

val create :
  ?pool:Mde_par.Pool.t ->
  ?clock:(unit -> float) ->
  ?obs:Mde_obs.t ->
  ?cache_capacity:int ->
  ?cache_ttl:float ->
  ?scheduler:Scheduler.config ->
  ?admission:Server.admission ->
  ?high_water:int ->
  shards:int ->
  unit ->
  t
(** A front of [shards] independent {!Server}s sharing [pool] (each
    scheduler fans its batches over the same pool — a slice in time
    rather than a partition of domains) and [obs]. [cache_capacity],
    [cache_ttl], [scheduler] and [admission] configure {e each} shard,
    so total cache capacity is [shards * cache_capacity].
    [high_water] (default [shards * scheduler.queue_capacity]) bounds
    the front's aggregate outstanding requests. Registers
    [mde_shard_routed_total{shard=...}], [mde_shard_shed_total{shard=...}],
    [mde_shard_depth{shard=...}], [mde_shard_outstanding] and
    [mde_shard_imbalance] (max/mean routed across shards) on [obs]
    (default {!Mde_obs.default}). Raises [Invalid_argument] if
    [shards < 1] or [high_water < 1]. *)

val shards : t -> int
val router : t -> Router.t

(** {2 Registration} — mirrors {!Server}; each call registers the model
    on every shard, so routing is free to place any fingerprint
    anywhere. *)

val register_mcdb :
  t -> name:string -> query:(Mde_relational.Catalog.t -> float) -> Mde_mcdb.Database.t -> unit

val register_mcdb_plan :
  t ->
  name:string ->
  table:string ->
  plan:Mde_mcdb.Bundle.plan ->
  Mde_mcdb.Database.t ->
  unit

val register_chain :
  t -> name:string -> query:(Mde_simsql.Chain.state -> float) -> Mde_simsql.Chain.t -> unit

val register_composite : t -> name:string -> 'a Mde_composite.Result_cache.two_stage -> unit

val federate : t -> name:string -> backends:string list -> unit
(** Publish logical model [name], answered by whichever of [backends]
    is currently cheapest. Backends must already be registered, all
    able to answer the same request kinds (MCDB scans and bundle plans
    are mutually compatible; chains and composites only group with
    themselves), and are preferred in the order: bundle plans, then
    everything else, then registration order. Raises
    [Invalid_argument] on an empty backend list, an unknown backend,
    incompatible backends, or a [name] already taken. *)

val fingerprint : t -> Server.request -> string
(** The canonical fingerprint the front routes on. For a federated
    model this is the fingerprint of its statically-preferred backend —
    fixed at {!federate} time — so a logical query's shard never moves
    when the cost-based catalog changes its mind about the backend.
    Raises [Invalid_argument] on a malformed request (an unknown
    model, a kind mismatch, a parameter out of range), exactly as
    {!Server.fingerprint}; {!submit} computes it first, so a malformed
    request raises whatever the front's load. *)

val shard_of : t -> Server.request -> int
(** [Router.route (router t) (fingerprint t request)] — where the
    request will execute. Pure: does not submit. *)

val backend_for : t -> Server.request -> string
(** The backend the federation catalog would resolve [request.model] to
    right now ([request.model] itself for non-federated models). Pure:
    does not update probing state. *)

(** {2 Serving} *)

val submit : t -> Server.request -> [ `Queued of int | `Shed of shed ]
(** Resolve the backend, route, and submit to the routed shard.
    [`Queued id] is a front-level id delivered by {!drain}; [`Shed]
    is typed admission-control shedding (see above). Raises
    [Invalid_argument] on malformed requests, as {!Server.submit},
    before any shedding decision. *)

val drain : t -> (int * Server.response) list
(** Drain every shard and deliver all completed responses in front
    submission order. Observed execution latencies feed the federation
    catalog's cost estimates.

    Exception safety: every shard is drained even when one raises.
    Requests a shard ended without a response ({!Server.unanswered})
    leave the front's [outstanding] count and per-shard depth at once;
    the other shards' responses are banked and delivered by the next
    drain; then the first exception propagates. So every accepted
    request ends exactly once — delivered, or failed and released — and
    a raising model never shrinks the front's high-water headroom. *)

val serve : t -> Server.request -> [ `Served of Server.response | `Shed of shed ]
(** [submit] + [drain] for a single request. *)

val shutdown : t -> (int * Server.response) list
(** {!Server.shutdown} on every shard: deliver everything already
    executed (banked completions, pending cache hits) without running
    queued work, which is dropped, counted as abandoned and released
    from [outstanding]. *)

(** {2 Progressive-refinement hooks} — the front-side twins of
    {!Server.refinement_key} and {!Server.sample_batch}. *)

val refinement_key : t -> Server.request -> string
(** Like routing fingerprints, the key of a federated name comes from
    its statically-preferred primary, so a session's sample store never
    moves when the cost-based catalog changes backends. *)

val sample_batch : t -> Server.request -> lo:int -> hi:int -> float array
(** Resolve the backend and run {!Server.sample_batch} on the routed
    shard. Bit-identical across backends and shard counts: federated
    backends agree bit-for-bit by contract, and streams depend only on
    the request seed — which is what lets an open session survive a
    front resize ({!Session.retarget}). *)

type stats = {
  routed : int array;  (** accepted submissions per shard *)
  shed : int array;  (** sheds per routed shard, both reasons *)
  shed_front : int;  (** the [Front_high_water] subset of sheds *)
  outstanding : int;  (** accepted but not yet delivered *)
  servers : Server.stats array;  (** per-shard server statistics *)
}

val stats : t -> stats

val imbalance : t -> float
(** max/mean of accepted submissions across shards — 1.0 is a perfectly
    balanced front, [nan] before any routing. The live value behind the
    [mde_shard_imbalance] gauge. *)
