(** Factor screening (§4.3): identify the parameters the response is most
    sensitive to, spending far fewer runs than a full factorial.

    {!sequential_bifurcation} implements the group-testing procedure of
    Shen–Wan [50] for linear metamodels with known-positive main effects:
    test a whole group of factors at once, discard it if its aggregate
    effect is negligible, split and recurse otherwise. {!gp_screening}
    is the complex-metamodel alternative: fit a GP by MLE and read each
    factor's importance off its length-scale θ_j (equation (5) — θ_j ≈ 0
    means the response ignores the factor). *)

type sb_result = {
  important : int list;  (** 0-based factor indices, ascending *)
  runs_used : int;
  group_tests : int;
}

val sequential_bifurcation :
  ?threshold:float ->
  ?replications:int ->
  ?confidence_z:float ->
  factors:int ->
  simulate:(float array -> float) ->
  unit ->
  sb_result
(** [simulate] maps a ±1-coded point to a response. Assumes (as [50]
    does) an additive metamodel with nonnegative main effects: the
    aggregate effect of a factor group is half the response difference
    between "group high, rest low" and "all low", and subgroup effects
    are bounded by the group's. Groups whose aggregate half-effect is
    ≤ [threshold] (default 0.01) are discarded; singleton groups above
    threshold are declared important. Run caching ensures each distinct
    design point is simulated once (per replication).

    For stochastic responses — [50]'s Gaussian-noise setting — set
    [replications] > 1 (default 1): each design point is simulated that
    many times, group effects use the replicate means, and a group is
    split only when its effect exceeds threshold + [confidence_z] ×
    standard error (default z = 2), guarding against noise-induced
    splits. Raises [Invalid_argument] unless [factors] ≥ 1 and
    [replications] ≥ 1. *)

type gp_screen = {
  theta : float array;
  ranked : (int * float) list;  (** factors sorted by θ descending *)
}

val gp_screening :
  design:float array array -> response:float array -> gp_screen
(** Fit a per-dimension-θ GP by MLE and rank the factors. *)
