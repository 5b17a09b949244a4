(** Splittable pseudorandom number generator.

    The generator is a xoshiro256** state seeded through splitmix64, which
    gives high-quality 64-bit streams and cheap, statistically independent
    splitting — the property needed to run Monte Carlo replications, VG
    functions and agents on separate streams without coordination.

    {b State and allocation.} The four 64-bit xoshiro words live in one
    private 32-byte buffer and are read and written unboxed, so a draw
    allocates nothing beyond its returned value (the [int64] or [float]
    box, none for [int] and [bool]); {!split} and {!copy} allocate only
    the new 32-byte buffer.

    {b Stability.} Every stream — raw outputs, seeding, splitting and the
    samplers in {!Dist} built on them — is bit-identical to the one the
    earlier representation (four mutable [int64] record fields) produced,
    and a golden vector in the test suite pins it bit for bit.

    {b Validation.} Invalid arguments raise [Invalid_argument] in every
    build profile, including one compiled with [-noassert]. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from a 64-bit seed (default a
    fixed constant, so runs are reproducible unless a seed is supplied). *)

val copy : t -> t
(** Independent copy of the current state (same future stream). *)

val split : t -> t
(** [split rng] advances [rng] and returns a fresh generator whose stream
    is statistically independent of the remainder of [rng]'s stream. *)

val advance : t -> int -> unit
(** [advance rng n] moves [rng] past its next [n] outputs, as [n] calls
    of {!bits64} would, allocating nothing. Since {!split} consumes
    exactly one output, [advance rng n] followed by [split rng] yields
    element [n] of [split_n rng (n + 1)].
    @raise Invalid_argument if [n < 0]. *)

val split_n : t -> int -> t array
(** [split_n rng n] returns [n] independent generators.
    @raise Invalid_argument if [n < 0]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0, 1) with 53 bits of precision. *)

val float_pos : t -> float
(** Uniform float in (0, 1) — never returns 0, safe for [log]. *)

val float_range : t -> float -> float -> float
(** [float_range rng lo hi] is uniform in [lo, hi).
    @raise Invalid_argument unless [lo < hi] (so also when either is NaN). *)

val int : t -> int -> int
(** [int rng n] is uniform in [0, n-1].
    @raise Invalid_argument if [n <= 0]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p].
    @raise Invalid_argument unless [0 <= p <= 1] (so also when [p] is NaN). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation rng n] is a uniform random permutation of [0 .. n-1]. *)
