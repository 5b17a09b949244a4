(** Tridiagonal linear systems.

    The paper's cubic-spline constants are the solution of a tridiagonal
    system A x = b (§2.2). This module provides the direct O(n) Thomas
    solver — the sequential baseline that "does not translate well to a
    MapReduce environment" — plus helpers shared with the DSGD solver. *)

type t = {
  lower : float array;  (** sub-diagonal, length n (index 0 unused) *)
  diag : float array;  (** main diagonal, length n *)
  upper : float array;  (** super-diagonal, length n (index n-1 unused) *)
}

val create : lower:float array -> diag:float array -> upper:float array -> t
(** Raises [Invalid_argument] unless the three bands have equal
    length. *)

val dim : t -> int

val solve : t -> float array -> float array
(** Thomas algorithm; O(n) time, not parallelizable across rows.
    Raises [Failure] on a zero pivot, and [Invalid_argument] on an empty
    system or a [b] of another length. Inputs are not modified. *)

val mul_vec : t -> float array -> float array
(** A x for a tridiagonal A; raises [Invalid_argument] unless [x] has
    A's dimension. *)

val row : t -> int -> int -> float
(** [row t i j] is A(i,j) (0 outside the three bands). Raises
    [Invalid_argument] outside the matrix. *)

val to_dense : t -> Mat.t

val residual_norm : t -> float array -> float array -> float
(** ‖A x − b‖₂, used to check iterative solutions. *)
