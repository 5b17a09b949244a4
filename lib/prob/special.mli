(** Special functions used by the probability distributions and the
    Gaussian-process machinery: error function, log-gamma, regularized
    incomplete gamma and beta, and the standard normal CDF and its inverse.
    An argument outside a function's stated domain (NaN included) raises
    [Invalid_argument]. *)

val erf : float -> float
(** Error function, |error| < 1.5e-7 (Abramowitz & Stegun 7.1.26-based
    rational approximation refined for double precision). *)

val erfc : float -> float
(** Complementary error function [1 - erf x], accurate for large [x]. *)

val log_gamma : float -> float
(** Natural log of the gamma function for [x > 0] (Lanczos). *)

val gamma_p : float -> float -> float
(** [gamma_p a x] is the regularized lower incomplete gamma P(a, x),
    for [a > 0], [x >= 0]. *)

val gamma_q : float -> float -> float
(** [gamma_q a x = 1 - gamma_p a x]. *)

val beta_inc : float -> float -> float -> float
(** [beta_inc a b x] is the regularized incomplete beta I_x(a, b)
    for [a, b > 0] and [x] in [0, 1]. *)

val normal_cdf : float -> float
(** Standard normal cumulative distribution function Φ. *)

val normal_inv_cdf : float -> float
(** Φ⁻¹, the standard normal quantile function, for p in (0, 1)
    (Acklam's algorithm, |relative error| < 1.15e-9). *)

val log_factorial : int -> float
(** [log_factorial n = log n!] for [n >= 0], exact via table for small n. *)

val log_choose : int -> int -> float
(** [log_choose n k = log (n choose k)]. *)
