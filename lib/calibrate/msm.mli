(** The method of simulated moments (§3.1, McFadden [41]) for calibrating
    agent-based simulations: the moment map m(θ) is intractable, so it is
    replaced by a simulation estimate m̂(θ) (averaged over Monte Carlo
    replications), and θ is chosen to minimize the generalized distance
    J(θ) = Gᵀ W G with G = Ȳ − m̂(θ). W defaults to the inverse of the
    observed moments' covariance (the statistically efficient choice of
    [20, 30]); optimizer back-ends cover the strategies the paper
    surveys: Nelder–Mead and genetic algorithms (Fabretti [17]), random
    search as the naive baseline, and DOE + kriging surrogate
    minimization (Salle–Yildizoglu [45]). *)

type regularization = {
  lambda : float;  (** penalty weight *)
  prior : float array;  (** θ₀ the estimate is shrunk toward *)
}
(** The paper's anti-overfitting hook for MSM: "regularization terms can
    potentially be incorporated into the objective function J" (§3.1).
    The penalized objective is J(θ) + λ·‖(θ−θ₀)/range‖² (coordinates
    scaled by the parameter ranges so the penalty is unit-free). *)

type problem = {
  simulate_moments : Mde_prob.Rng.t -> float array -> float array;
      (** one simulation replication's moment vector at a given θ *)
  observed : float array array;
      (** empirical moment samples (replications × moments) from the
          real-world data — used for Ȳ and the weight matrix *)
  bounds : (float * float) array;
  replications : int;  (** simulation replications averaged into m̂(θ) *)
  regularization : regularization option;
}

val observed_mean : problem -> float array
(** Ȳ, the mean of the observed moment samples. Raises
    [Invalid_argument] if there are none or their rows differ in
    length. *)

val weight_matrix : ?ridge:float -> problem -> Mde_linalg.Mat.t
(** Inverse covariance of G = Ȳ − m̂(θ): the per-sample moment covariance
    scaled by (1/n + 1/replications) — McFadden's simulation-noise
    correction — with a ridge (default 1e-6 × mean diagonal) for
    stability. Raises [Invalid_argument] on fewer than two observed
    samples or rows of different lengths. *)

val objective : problem -> Mde_prob.Rng.t -> Mde_linalg.Mat.t -> float array -> float
(** J(θ) for one (fresh-stream) simulation estimate of m̂(θ). Raises
    [Invalid_argument] if the observed samples are empty or ragged,
    [simulate_moments] returns a vector of another length than the
    observed rows, or a regularization prior's length differs from
    θ's. *)

type method_ =
  | Nelder_mead
  | Genetic of Mde_optimize.Genetic.params
  | Random_search of int  (** evaluation budget *)
  | Kriging_surrogate of { design_points : int; refine : bool }
      (** NOLH design → fit GP to J → minimize the surrogate (optionally
          polish with Nelder–Mead on the true objective) *)

type result = {
  theta : float array;
  j_value : float;
  simulations : int;  (** total simulate_moments calls *)
  method_name : string;
}

val calibrate :
  ?seed:int ->
  ?weight:Mde_linalg.Mat.t ->
  ?common_random_numbers:bool ->
  problem ->
  method_ ->
  result
(** [common_random_numbers] (default true) evaluates every J(θ) on the
    same random stream, the standard variance-reduction trick that turns
    the noisy objective into a fixed surface so that deterministic
    optimizers (Nelder–Mead, the kriging surrogate) behave; set false for
    independent streams per evaluation. Raises [Invalid_argument] on
    the inputs {!weight_matrix} (when [weight] is not given) and
    {!objective} reject, and on a [Kriging_surrogate] with fewer than 4
    design points. *)
