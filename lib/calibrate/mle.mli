(** Maximum likelihood estimation (§3.1): closed forms for the paper's
    textbook cases plus a generic numeric MLE for densities where the
    likelihood is available — which, as the paper notes, is rarely the
    case for agent-based simulations (hence MSM in {!Msm}). *)

val exponential : float array -> float
(** MLE of the rate θ of f(x;θ) = θe^{−θx}: 1 / sample mean (the paper's
    worked example). Raises [Invalid_argument] if [xs] is empty, an
    observation is negative or NaN, or the sample mean is not positive. *)

val normal : float array -> float * float
(** (μ̂, σ̂) with the (biased, 1/n) MLE variance. Raises
    [Invalid_argument] on an empty sample. *)

val poisson : int array -> float
(** Rate MLE = sample mean. Raises [Invalid_argument] on an empty
    sample. *)

type numeric_result = {
  theta : float array;
  log_likelihood : float;
  evaluations : int;
}

val numeric :
  log_density:(theta:float array -> float -> float) ->
  bounds:(float * float) array ->
  x0:float array ->
  float array ->
  numeric_result
(** [numeric ~log_density ~bounds ~x0 data] maximizes Σᵢ log f(xᵢ; θ)
    with box-constrained Nelder–Mead. Raises [Invalid_argument] if
    [data] is empty. *)
