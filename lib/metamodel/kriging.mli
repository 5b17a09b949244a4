(** Gaussian-process metamodels / kriging (§4.1, equations (4)–(6)).

    Y(x) = β₀ + M(x) with M a stationary Gaussian field with the product
    Gaussian covariance Σ(xᵢ,xⱼ) = τ² Π_k exp(−θ_k (x_{ik} − x_{jk})²).
    The BLUP predictor (6) interpolates the design points exactly for
    deterministic simulations; {!fit_stochastic} adds the Σ_ε term of
    Ankenman–Nelson–Staum stochastic kriging so noisy responses are
    smoothed instead of interpolated. *)

type t

val covariance : theta:float array -> tau2:float -> float array -> float array -> float
(** Equation (5). Raises [Invalid_argument] unless both points and
    [theta] have one length. *)

val fit :
  ?beta0:float ->
  ?nugget:float ->
  theta:float array ->
  tau2:float ->
  design:float array array ->
  response:float array ->
  unit ->
  t
(** Deterministic kriging. [beta0] defaults to the GLS estimate
    (1ᵀΣ⁻¹y)/(1ᵀΣ⁻¹1); [nugget] (default 1e-10·τ²) regularizes the
    Cholesky factorization. [theta] must have one entry per input
    dimension. Raises [Invalid_argument] unless there are at least two
    design points and one response per point. *)

val fit_stochastic :
  ?beta0:float ->
  theta:float array ->
  tau2:float ->
  design:float array array ->
  means:float array ->
  noise_variances:float array ->
  unit ->
  t
(** Stochastic kriging: [means] are per-design-point Monte Carlo averages
    and [noise_variances] their squared standard errors (V(xᵢ)/nᵢ);
    Σ_M⁻¹ becomes (Σ_M + Σ_ε)⁻¹ in the predictor. Raises
    [Invalid_argument] unless there are at least two design points, and
    one mean and one noise variance per point. *)

val predict : t -> float array -> float
(** Equation (6). *)

val predict_variance : t -> float array -> float
(** Posterior variance of the prediction (0 at design points for
    deterministic kriging). *)

val beta0 : t -> float
val theta : t -> float array
val tau2 : t -> float

val log_likelihood :
  theta:float array -> design:float array array -> response:float array -> float
(** Concentrated Gaussian log-likelihood (β₀ and τ² profiled out) — the
    objective for hyperparameter estimation. Raises [Invalid_argument]
    on fewer than two design points. *)

val fit_mle :
  ?theta_bounds:float * float ->
  design:float array array ->
  response:float array ->
  unit ->
  t
(** Estimate per-dimension θ by maximizing the concentrated likelihood
    with Nelder–Mead in log-θ space (bounds default 1e-3..1e3), then fit.
    The fitted θ are also the GP factor-screening statistic of §4.3. *)
