(** Dense float vectors (thin wrappers over [float array] with the
    arithmetic needed by the solvers, SGD, and kriging code). The
    two-vector operations raise [Invalid_argument] when the lengths
    differ, in every build profile. *)

type t = float array

val make : int -> float -> t
val init : int -> (int -> float) -> t
val dim : t -> int
val copy : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val dot : t -> t -> float
val norm2 : t -> float
(** Euclidean norm. *)

val dist2 : t -> t -> float
(** Euclidean distance. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] updates [y := y + a·x] in place. *)

val map2 : (float -> float -> float) -> t -> t -> t
val sum : t -> float
val max_abs : t -> float
val pp : Format.formatter -> t -> unit
