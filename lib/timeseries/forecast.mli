(** Shallow predictive models — the "data is dead" cautionary tools
    behind Figure 1. A trend or autoregressive model is fit to history
    and extrapolated forward; the figure's point is that such
    extrapolations are brittle across regime changes, which the FIG1
    bench demonstrates on the synthetic housing series. *)

type model =
  | Linear_trend  (** y ≈ β₀ + β₁·t *)
  | Quadratic_trend  (** y ≈ β₀ + β₁·t + β₂·t² *)
  | Ar of int  (** AR(p) with intercept, fit by OLS *)

type fit

val fit : model -> Series.t -> fit
(** Raises [Invalid_argument] when the series is too short for the
    model's parameter count. *)

val coefficients : fit -> float array
val in_sample_rmse : fit -> float

val extrapolate : fit -> horizon:int -> Series.t
(** Continue the series [horizon] steps past its last observation, on the
    series' mean time step. Trend models evaluate the fitted curve; AR
    models iterate the recursion on their own predictions. Raises
    [Invalid_argument] unless [horizon > 0]. *)

val extrapolation_error : fit -> actual:Series.t -> float
(** RMSE of the extrapolation against the held-out continuation
    [actual] (whose times must extend past the fit's series). *)
