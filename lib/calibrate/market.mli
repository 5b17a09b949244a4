(** A small agent-based asset market in the Alfarano–Lux herding family
    [1] — the standard calibration target in the ABS-calibration
    literature the paper surveys. N traders are optimists or pessimists;
    each step a trader flips with probability a + b·(opposite fraction)
    (idiosyncratic switching plus herding); returns follow the mood
    imbalance plus fundamental noise. Herding (b) fattens the return
    tails and makes volatility cluster — the moments MSM calibrates
    against. *)

type params = {
  n_agents : int;
  a : float;  (** idiosyncratic switching rate *)
  b : float;  (** herding strength *)
  noise : float;  (** fundamental news volatility *)
}

val simulate_returns :
  Mde_prob.Rng.t -> params -> steps:int -> burn_in:int -> float array
(** One realization of the return series after discarding [burn_in]
    steps. Raises [Invalid_argument] unless [n_agents >= 2], [steps > 0],
    [burn_in >= 0] and [a], [b], [noise] are all [>= 0]. *)

val moments : float array -> float array
(** The calibration moment vector: [variance; kurtosis; lag-1
    autocorrelation of absolute returns] — variance targets noise,
    kurtosis and |r| clustering target herding. Raises
    [Invalid_argument] on fewer than 3 returns. *)

val simulate_moments :
  steps:int -> burn_in:int -> n_agents:int -> noise:float ->
  Mde_prob.Rng.t -> float array -> float array
(** Adapter for {!Msm.problem}: θ = [a; b]. Raises [Invalid_argument]
    if θ does not have exactly two entries. *)
