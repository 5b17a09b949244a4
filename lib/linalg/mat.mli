(** Dense row-major matrices with the factorizations used by the kriging
    predictor (6), OLS metamodel fitting, and the spline benchmarks:
    LU with partial pivoting and Cholesky.

    Dimension and index preconditions raise [Invalid_argument] in every
    build profile, including one compiled with [-noassert]. *)

type t

val create : int -> int -> t
(** Zero matrix with given rows × cols. Raises [Invalid_argument] on a
    negative dimension. *)

val init : int -> int -> (int -> int -> float) -> t
val of_rows : float array array -> t
(** Copies; raises [Invalid_argument] unless there is a row and all
    rows have equal length. *)

val identity : int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
(** Raises [Invalid_argument] outside the matrix. *)

val set : t -> int -> int -> float -> unit
(** Raises [Invalid_argument] outside the matrix. *)

val copy : t -> t
val transpose : t -> t
val row : t -> int -> float array
val add : t -> t -> t
(** Raises [Invalid_argument] unless the dimensions agree. *)

val sub : t -> t -> t
(** Raises [Invalid_argument] unless the dimensions agree. *)

val scale : float -> t -> t
val mul : t -> t -> t
(** Matrix product; raises [Invalid_argument] unless the inner
    dimensions agree. *)

val mul_vec : t -> Vec.t -> Vec.t
(** Matrix-vector product; raises [Invalid_argument] unless the vector
    has [cols] entries. *)

val trans_mul_vec : t -> Vec.t -> Vec.t
(** [trans_mul_vec a x = aᵀ x] without materializing the transpose;
    raises [Invalid_argument] unless [x] has [rows] entries. *)

val lu_solve : t -> Vec.t -> Vec.t
(** Solve A x = b by LU with partial pivoting. Raises [Failure] on a
    (numerically) singular matrix, and [Invalid_argument] unless A is
    square and [b] has its dimension. Does not modify A. *)

val lu_solve_many : t -> t -> t
(** Solve A X = B column-by-column. Raises [Invalid_argument] unless A
    is square with B's row count. *)

val inverse : t -> t
(** Raises [Failure] on singular input. *)

val cholesky : t -> t
(** Lower-triangular L with L Lᵀ = A for symmetric positive-definite A.
    Raises [Failure] if A is not positive definite and
    [Invalid_argument] if it is not square. *)

val cholesky_solve : t -> Vec.t -> Vec.t
(** Solve A x = b via Cholesky (A symmetric positive-definite). Raises
    [Invalid_argument] unless [b] has A's row count. *)

val determinant_sign_logabs : t -> float * float
(** [(sign, log|det|)] via LU; sign is 0. for singular matrices. *)

val pp : Format.formatter -> t -> unit
