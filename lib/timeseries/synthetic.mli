(** Synthetic data generators for the benchmarks — documented substitutes
    for the paper's external datasets (see DESIGN.md). *)

val housing_index :
  ?seed:int ->
  ?start_year:float ->
  ?bust_year:float ->
  ?end_year:float ->
  unit ->
  Series.t
(** A monthly "median housing price" index with the qualitative shape of
    the paper's Figure 1 data: steady growth with noise up to
    [bust_year] (default 2006), an accelerating boom in the final years
    before it, then a sharp collapse — the regime change no trend
    extrapolation can see coming. Values are index points (≈100 at
    [start_year], default 1970). Raises [Invalid_argument] unless
    [start_year < bust_year < end_year]. *)

val smooth_signal : ?seed:int -> knots:int -> span:float -> unit -> Series.t
(** A smooth random test function on [0, span]: a sum of a low-order
    polynomial and a few random sinusoids, sampled at [knots] evenly
    spaced points — the workload for interpolation/spline benches. Raises [Invalid_argument] unless [knots >= 2] and
    [span > 0]. *)

val noisy_observations :
  ?seed:int -> f:(float -> float) -> noise:float -> float array -> Series.t
(** [noisy_observations ~f ~noise times]: f(t) + Normal(0, noise) at each
    requested time. *)
