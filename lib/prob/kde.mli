(** Kernel density estimation (§3.2 of the paper).

    Given samples x₁..x_M from an unknown density f, the estimate is
    f̂(x) = (M h)⁻¹ Σᵢ K((x − xᵢ)/h). The paper's example kernel
    K(x) = e^{−|x|} is available as {!Laplace}; {!Gaussian} and
    {!Epanechnikov} are standard alternatives. *)

type kernel =
  | Gaussian
  | Laplace  (** K(x) = ½ e^{−|x|}, normalized form of the paper's example *)
  | Epanechnikov  (** K(x) = ¾(1−x²) on [−1,1] *)

val kernel_value : kernel -> float -> float
(** Normalized kernel evaluated at a point (integrates to 1). *)

val silverman_bandwidth : float array -> float
(** Silverman's rule-of-thumb bandwidth 0.9·min(σ̂, IQR/1.34)·M^{−1/5};
    falls back to 1.0 for degenerate (constant) samples. Raises
    [Invalid_argument] on an empty sample. *)

type t

val fit : ?kernel:kernel -> ?bandwidth:float -> float array -> t
(** Build an estimator from samples. Bandwidth defaults to Silverman's
    rule. Raises [Invalid_argument] on an empty sample or a bandwidth
    that is not > 0. *)

val density : t -> float -> float
(** Estimated density f̂(x). *)

val log_density : t -> float -> float
val bandwidth : t -> float
val sample_count : t -> int
