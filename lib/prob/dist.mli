(** Probability distributions.

    Continuous distributions are values of type {!t}; integer-valued
    distributions are values of type {!discrete}. Sampling draws from a
    {!Rng.t} stream, so independent replications are obtained by
    {!Rng.split}ting the generator. *)

type t =
  | Uniform of float * float  (** [Uniform (lo, hi)], lo < hi *)
  | Normal of { mean : float; std : float }  (** std > 0 *)
  | Lognormal of { mu : float; sigma : float }
      (** log of the variate is Normal(mu, sigma) *)
  | Exponential of { rate : float }  (** rate > 0; mean 1/rate *)
  | Gamma of { shape : float; scale : float }  (** shape, scale > 0 *)
  | Beta of { alpha : float; beta : float }  (** alpha, beta > 0 *)
  | Triangular of { lo : float; mode : float; hi : float }
      (** lo <= mode <= hi, lo < hi *)
  | Weibull of { shape : float; scale : float }  (** shape, scale > 0 *)

val sample : t -> Rng.t -> float
val pdf : t -> float -> float
val log_pdf : t -> float -> float
val cdf : t -> float -> float

val quantile : t -> float -> float
(** [quantile d p] for p in (0, 1); closed form where available, else
    bracketed bisection on the CDF. Raises [Invalid_argument] for any
    other [p]. *)

val mean : t -> float
val variance : t -> float
val std : t -> float

val support : t -> float * float
(** Closed support interval (may contain infinities). *)

val sample_n : t -> Rng.t -> int -> float array
(** [sample_n d rng n] draws n i.i.d. samples. *)

(** Integer-valued distributions. *)
type discrete =
  | Bernoulli of float  (** p in [0,1]; values 0/1 *)
  | Binomial of { n : int; p : float }
  | Poisson of float  (** rate > 0 *)
  | Geometric of float  (** p in (0,1]; #failures before first success *)
  | Discrete_uniform of int * int  (** inclusive [lo, hi] *)
  | Categorical of float array
      (** unnormalized nonnegative weights; values are indices *)

val sample_discrete : discrete -> Rng.t -> int
(** Raises [Invalid_argument] on a [Geometric] [p] outside (0, 1], a
    [Discrete_uniform] with [hi < lo], or weights that
    {!categorical_cumulative} rejects. *)

val pmf : discrete -> int -> float
val log_pmf : discrete -> int -> float
val mean_discrete : discrete -> float
val variance_discrete : discrete -> float
val sample_discrete_n : discrete -> Rng.t -> int -> int array

val categorical_cumulative : float array -> float array
(** Normalized cumulative weights for repeated categorical sampling.
    Raises [Invalid_argument] on no weights, a negative (or NaN) weight,
    or weights that do not sum to > 0. *)

val sample_cumulative : float array -> Rng.t -> int
(** Sample an index given normalized cumulative weights (binary search). *)
