(** Morris elementary-effects screening — the standard one-factor-at-a-
    time global screening design from the §4.2 design-of-experiments
    toolbox (Sanchez–Wan's survey [46] lists it alongside the factorial
    and LH families). Each trajectory perturbs one factor at a time on a
    p-level grid; the distribution of the resulting elementary effects
    gives μ* (importance) and σ (interaction/nonlinearity) per factor,
    at a cost of r·(k+1) runs for k factors. *)

type factor_stats = {
  factor : int;  (** 0-based *)
  mu_star : float;  (** mean |elementary effect| — overall importance *)
  mu : float;  (** signed mean effect *)
  sigma : float;  (** effect std — nonlinearity / interactions *)
}

type result = {
  stats : factor_stats array;  (** by factor index *)
  runs_used : int;
  ranked : int list;  (** factors by μ* descending *)
}

val screen :
  ?levels:int ->
  ?trajectories:int ->
  rng:Mde_prob.Rng.t ->
  factors:int ->
  simulate:(float array -> float) ->
  unit ->
  result
(** [simulate] maps a point of the unit cube [0,1]^k to a response.
    [levels] (default 4, must be even) is the grid resolution; the jump
    is the canonical Δ = levels / (2(levels−1)). [trajectories] defaults
    to 10. Raises [Invalid_argument] unless [factors] ≥ 1, [levels] is
    even and ≥ 2, and [trajectories] ≥ 1. *)
