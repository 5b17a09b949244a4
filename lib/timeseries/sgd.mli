(** Stochastic gradient descent for least squares, and the stratified
    distributed variant (DSGD) of §2.2 / [21].

    The problem is min_x L(x) = ‖Ax − b‖² with A given as sparse rows.
    SGD picks a random row I and steps along ∇L_I; DSGD partitions the
    rows into strata whose member rows touch pairwise-disjoint solution
    coordinates, so a whole stratum can be processed in parallel with no
    coordination — the property the paper exploits for the tridiagonal
    spline system with strata {1,4,7,…}, {2,5,8,…}, {3,6,9,…}. *)

type sparse_row = {
  cols : int array;  (** coordinates with nonzero coefficients *)
  coeffs : float array;  (** matching coefficients *)
  rhs : float;
}

type problem = { dim : int; rows : sparse_row array }

val of_tridiag : Mde_linalg.Tridiag.t -> float array -> problem
(** Raises [Invalid_argument] unless the right-hand side's length is the
    matrix dimension. *)

val residual_norm : problem -> float array -> float
(** ‖Ax − b‖₂. *)

(** Step-size rule. [Polynomial] is the paper's ε_n = scale·(n+1)^{−alpha}
    schedule (provably convergent for 1 ≤ alpha < 2, with the gradient
    estimate Y = m·∇L_I). [Row_normalized omega] is the randomized-
    Kaczmarz step — exact minimization of L_I along its gradient, relaxed
    by omega ∈ (0, 2) — which converges linearly on consistent systems
    and is the robust default. *)
type schedule =
  | Polynomial of { scale : float; alpha : float }
  | Row_normalized of float

val sgd :
  rng:Mde_prob.Rng.t ->
  schedule:schedule ->
  iters:int ->
  ?x0:float array ->
  problem ->
  float array
(** Plain sequential SGD with uniformly random row selection. Raises
    [Invalid_argument] on a problem with no rows. *)

type dsgd_result = {
  solution : float array;
  sub_epochs : int;  (** stratum visits executed *)
  rows_processed : int;
  stratum_switches : int;
      (** cross-node synchronization points — the only shuffle DSGD needs *)
  final_residual : float;
}

val tridiagonal_strata : dim:int -> int array array
(** The 3-coloring strata for a tridiagonal system: rows {0,3,6,…},
    {1,4,7,…}, {2,5,8,…} (0-based). Rows within one stratum update
    disjoint coordinate sets. Raises [Invalid_argument] unless
    [dim > 0]. *)

val strata_independent : problem -> int array array -> bool
(** Check the DSGD precondition: within every stratum, no two rows share
    a coordinate. *)

val dsgd :
  rng:Mde_prob.Rng.t ->
  schedule:schedule ->
  sub_epochs:int ->
  ?x0:float array ->
  ?tol:float ->
  strata:int array array ->
  problem ->
  dsgd_result
(** Visit strata in a random regenerative order that spends equal time in
    each stratum in the long run (a uniformly shuffled sequence of the
    strata per regeneration cycle), processing every row of the visited
    stratum. Stops early once the residual drops below [tol]
    (default 0 = never). Raises [Invalid_argument] on no strata. *)
