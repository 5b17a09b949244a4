(** Result caching for stochastic composite simulations (§2.3, [25]).

    Two models run in series: M₁ produces a random output Y₁; M₂ consumes
    it and produces Y₂. To estimate θ = E[Y₂] with n replications of M₂,
    only m_n = ⌈αn⌉ replications of M₁ are run; their outputs are cached
    and cycled through deterministically. The asymptotic variance of the
    budget-constrained estimator is g(α) = (αc₁ + c₂)(V₁ + [2r_α −
    αr_α(r_α+1)]V₂) with r_α = ⌊1/α⌋, minimized (in the r_α ≈ 1/α
    approximation) at α* = √((c₂/c₁)/(V₁/V₂ − 1)). *)

type statistics = {
  c1 : float;  (** expected cost of one M₁ run (incl. transform/store) *)
  c2 : float;  (** expected cost of one M₂ run *)
  v1 : float;  (** Var[Y₂] *)
  v2 : float;  (** Cov[Y₂, Y₂′] for two M₂ runs sharing an M₁ output *)
}

val g : statistics -> float -> float
(** Exact asymptotic work-variance product g(α), α ∈ (0, 1]. *)

val g_approx : statistics -> float -> float
(** The r_α ≈ 1/α approximation g̃(α). *)

val alpha_star : statistics -> float
(** Minimizer of g̃ truncated into (0, 1]: the optimal replication
    fraction. Degenerate cases follow the paper: V₂ = 0 (M₁ effectively
    deterministic for M₂'s variance) → 0 (run M₁ once, caller truncates
    at 1/n); V₂ = V₁ (M₂ a deterministic transformer) → 1. Raises
    [Invalid_argument] unless c₁, c₂ > 0 and V₁, V₂ ≥ 0. *)

val efficiency_gain : statistics -> float
(** The factor by which optimal caching beats no caching: g(1) divided by
    min(g(α-star), g(1)) — at least 1, since a planner can always decline
    to cache. *)

val query_fingerprint :
  model:string -> n:int -> alpha:float -> seed:int -> string
(** Canonical description of one RC-estimate request ([model] is the
    caller's name for the two-stage composite, whose closures are not
    otherwise observable). Distinct parameters yield distinct strings
    (α is rendered with full precision), so a serving layer can use the
    result directly as a cache key. *)

(** The two-model composite whose θ = E[Y₂] is being estimated. ['a] is
    the type of M₁'s (cached) output. *)
type 'a two_stage = {
  model1 : Mde_prob.Rng.t -> 'a;
  model2 : Mde_prob.Rng.t -> 'a -> float;
}

type estimate = {
  theta_hat : float;
  n : int;  (** M₂ replications executed *)
  m : int;  (** M₁ replications executed (= ⌈αn⌉) *)
  alpha : float;
}

val estimate : 'a two_stage -> Mde_prob.Rng.t -> n:int -> alpha:float -> estimate
(** The RC estimator: run m = ⌈αn⌉ M₁ replications, cycle their cached
    outputs in fixed order through n M₂ replications (the stratified
    re-use scheme), and average. Raises [Invalid_argument] if [n < 1]
    or [alpha] is outside (0, 1]. *)

val estimate_under_budget :
  'a two_stage ->
  Mde_prob.Rng.t ->
  budget:float ->
  alpha:float ->
  stats:statistics ->
  estimate
(** Budget-constrained form: run the largest n with C_n = m_n·c₁ + n·c₂ ≤
    budget (N(c) in the paper), then estimate as above. Raises
    [Invalid_argument] if the budget does not cover a single (M₁, M₂)
    pair. *)

type pilot = {
  statistics : statistics;
  inputs_sampled : int;
  outputs_per_input : int;
}

val pilot :
  ?pool:Mde_par.Pool.t ->
  'a two_stage ->
  Mde_prob.Rng.t ->
  inputs:int ->
  outputs_per_input:int ->
  pilot
(** Pilot runs to estimate the statistics 𝒮 = (c₁, c₂, V₁, V₂), as the
    paper prescribes before choosing α: run [inputs] M₁ replications and
    [outputs_per_input] ≥ 2 M₂ replications on each; c₁/c₂ are measured
    wall-clock averages and V₁/V₂ come from the one-way ANOVA variance
    decomposition (between-input variance = V₂, total = V₁). Negative
    variance-component estimates are clamped to 0.

    Every pilot input draws on its own split stream, so with [?pool] the
    inputs run one-per-domain and the sampled outputs (hence V₁/V₂) are
    bit-identical to the sequential run; the measured costs c₁/c₂ are
    timing observations and carry run-to-run noise regardless. Raises
    [Invalid_argument] if [inputs < 2] or [outputs_per_input < 2]. *)
