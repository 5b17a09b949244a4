(** Ordinary least squares (with optional ridge regularization), the
    fitting engine behind polynomial metamodels (§4.1) and the trend
    models in the Figure 1 reproduction. *)

type fit = {
  coefficients : Vec.t;
  residual_sum_of_squares : float;
  r_squared : float;
  n_observations : int;
}

val fit : ?ridge:float -> Mat.t -> Vec.t -> fit
(** [fit x y] solves min ‖Xβ − y‖² (+ ridge·‖β‖²) via the normal
    equations (Cholesky, LU fallback). X is n×p with n ≥ p ≥ 1 and [y]
    has n entries, else [Invalid_argument]. A design including an
    intercept must carry an explicit column of ones. *)

val predict : fit -> Vec.t -> float
(** Dot product of a feature row with the coefficients. *)

val predict_all : fit -> Mat.t -> Vec.t

val standard_errors : Mat.t -> Vec.t -> fit -> Vec.t
(** Coefficient standard errors from σ̂²(XᵀX)⁻¹; raises
    [Invalid_argument] unless n > p. *)
