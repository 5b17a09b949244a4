(** A first-class handle on "something that serves requests" — one
    {!Server} or a sharded {!Shard} front behind a single
    submit/drain/stats interface.

    The open-loop workload driver, the shard benchmark and the
    progressive {!Session} engine all used to either take a concrete
    server or re-wrap the two backends in ad-hoc closure records; they
    now all drive a [Target.t], so anything
    that can accept-or-drop a request and later deliver responses plugs
    into every driver. [`Dropped] unifies {!Server}'s backpressure
    [`Rejected] and {!Shard}'s typed [`Shed]: callers that need the
    shed's type still hold the underlying front.

    A target also exposes the progressive-refinement hooks
    ({!refine}/{!refinement_key}) so a {!Session} is backend-agnostic —
    and can even be re-pointed at a resized front mid-flight
    ({!Session.retarget}), because streams depend only on request
    seeds, never on which backend or shard executes them. *)

type stats = {
  served : int;  (** responses delivered (cache hits included) *)
  dropped : int;  (** backpressure rejections plus typed sheds *)
  degraded : int;  (** deadline-degraded responses *)
}

type t

val of_server : Server.t -> t
val of_shard : Shard.t -> t
(** Constructors. A target borrows its backend (no lifecycle of its
    own): shutting the server or front down invalidates the target the
    same way it invalidates direct use. *)

val submit : t -> Server.request -> [ `Queued of int | `Dropped ]
(** Validate and enqueue; [`Queued id] is delivered by {!drain}. Raises
    [Invalid_argument] on malformed requests, as the backends do. *)

val drain : t -> (int * Server.response) list
(** Execute queued work and deliver every completed response, in
    submission order of this target's backend. *)

val serve : t -> Server.request -> [ `Served of Server.response | `Dropped ]
(** [submit] + [drain] for a single request. *)

val stats : t -> stats
(** Backend counters folded to the common denominator (a shard front
    sums its shards; shed counts of both levels land in [dropped]). *)

val refine : t -> Server.request -> lo:int -> hi:int -> float array
(** {!Server.sample_batch} / {!Shard.sample_batch} of the backend. *)

val refinement_key : t -> Server.request -> string
(** {!Server.refinement_key} / {!Shard.refinement_key} of the backend. *)
