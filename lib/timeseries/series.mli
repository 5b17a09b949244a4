(** Scalar time series ⟨(s₀,d₀), …, (s_m,d_m)⟩ with strictly increasing
    observation times — the §2.2 data model. *)

type t

val create : times:float array -> values:float array -> t
(** Raises [Invalid_argument] unless lengths match, length ≥ 1, and times
    strictly increase. *)

val of_pairs : (float * float) list -> t
val length : t -> int
val times : t -> float array
val values : t -> float array
val time_at : t -> int -> float
val value_at : t -> int -> float
val start_time : t -> float
val end_time : t -> float

val regular_times : start:float -> step:float -> count:int -> float array
(** start, start+step, … (count ticks). Raises [Invalid_argument] unless
    [count > 0] and [step > 0]. *)

val map_values : (float -> float) -> t -> t

val sub_before : t -> float -> t
(** Observations with time ≤ the cutoff (at least one must remain). *)

val locate : t -> float -> int
(** [locate s t]: largest index j with times.(j) ≤ t, clamped to
    [0, length−2]; the window index used by interpolation. *)

val pp : Format.formatter -> t -> unit
