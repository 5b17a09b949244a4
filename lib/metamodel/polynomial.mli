(** Polynomial metamodels (§4.1, equation (3)): the response is modelled
    as β₀ + Σ βᵢxᵢ + Σ βᵢⱼxᵢxⱼ + … + ε, fit by OLS, with main-effects
    analysis and half-normal (Daniel) diagnostics for two-level
    designs. *)

type term = int list
(** Sorted factor indices; [] is the intercept, [i] a main effect,
    [i; j] a two-factor interaction, etc. *)

val terms_up_to : factors:int -> order:int -> term list
(** Intercept + all interactions up to the given order, in graded
    lexicographic order. Raises [Invalid_argument] unless [factors] ≥ 1
    and [order] ≥ 0. *)

val term_value : term -> float array -> float
(** Product of the named coordinates (1 for the intercept). *)

type fit

val fit : terms:term list -> design:Design.t -> response:float array -> fit
(** Least squares on the terms' columns. Raises [Invalid_argument]
    unless there is one response per design run. *)

val coefficient : fit -> term -> float
(** Raises [Not_found] for a term outside the model. *)

val coefficients : fit -> (term * float) list
val predict : fit -> float array -> float
val r_squared : fit -> float

(** {2 Main effects for two-level designs (Figure 4)} *)

type main_effect = {
  factor : int;  (** 0-based *)
  low_mean : float;  (** average response over the runs at −1 *)
  high_mean : float;  (** average response over the runs at +1 *)
  effect : float;  (** high − low *)
}

val main_effects : design:Design.t -> response:float array -> main_effect array
(** One entry per factor. Requires a ±1-coded design. *)

val main_effects_plot : main_effect array -> string
(** ASCII rendering of the paper's Figure 4 "main effects plot": per
    factor, the low and high mean response with a connecting slope. *)

(** {2 Half-normal diagnostics (Daniel plots)} *)

type half_normal_point = {
  term_hn : term;
  abs_effect : float;
  quantile : float;  (** half-normal plotting position *)
}

val half_normal : fit -> half_normal_point list
(** Non-intercept effects sorted by |effect| ascending, paired with
    half-normal quantiles Φ⁻¹((i − 0.5 + n)/(2n) …) — points far above
    the line through the small effects are significant. *)

val significant_terms : ?multiplier:float -> fit -> term list
(** Heuristic cut: terms whose |effect| exceeds [multiplier] (default
    2.5) × the median |effect| (a robust pseudo standard error). *)
