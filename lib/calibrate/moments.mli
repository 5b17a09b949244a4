(** The method of moments (§3.1): equate population moments m(θ) to their
    empirical counterparts and solve for θ. *)

val exponential : float array -> float
(** E[X] = 1/θ ⇒ θ̂ = 1/X̄ (coincides with the MLE, as the paper notes).
    Raises [Invalid_argument] if [xs] is empty or its mean is not
    positive. *)

val normal : float array -> float * float
(** Two moments, two unknowns: (X̄, s). *)

type result = { theta : float array; distance : float; evaluations : int }

val solve :
  population_moments:(float array -> float array) ->
  observed_moments:float array ->
  bounds:(float * float) array ->
  x0:float array ->
  result
(** Generic MM: minimize ‖m(θ) − Ȳ‖² over the box (Nelder–Mead), for
    models whose moment map is analytic but not invertible by hand.
    Raises [Invalid_argument] if [population_moments] returns a vector
    whose length differs from [observed_moments]. *)

val sample_moments : orders:int list -> float array -> float array
(** Raw sample moments (1/n)Σxᵏ for the requested orders. Raises
    [Invalid_argument] on an empty sample or an order below 1. *)
