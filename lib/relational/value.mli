(** Atomic values stored in relational tables. *)

type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type ty = Tint | Tfloat | Tstring | Tbool

val type_of : t -> ty option
(** [None] for [Null]. *)

val type_name : ty -> string

val compare : t -> t -> int
(** Total order: Null < Bool < Int/Float (numeric order, cross-type) <
    String. Ints and floats compare numerically so that a join or sort key
    may mix them, and exactly: [Int i] equals [Float f] only when [f] is
    integral with value [i] ({!compare_int_float}), so equality is
    transitive beyond 2^53. Floats follow [Float.compare]: NaN lowest
    among numbers, every NaN one value, [-0. = 0.]. *)

val compare_int_float : int -> float -> int
(** [compare (Int i) (Float f)], without boxing. *)

val equal : t -> t -> bool

val identical : t -> t -> bool
(** Same constructor and same bits: floats compare by their IEEE bits
    ({!same_float}), so unlike {!equal}, [0.] and [-0.] differ, NaNs
    with different payloads differ, and [Int 2] differs from
    [Float 2.]. Whether a cell can stand in for another without
    changing an answer. *)

val same_float : float -> float -> bool
(** Bitwise float equality, the float case of {!identical}. *)

val hash : t -> int
(** Compatible with [equal] (equal values hash identically), which the
    polymorphic [Hashtbl.hash] is {e not}: all NaN floats are [equal]
    under [Float.compare] yet structurally distinct, and [Int i] equals
    [Float (float_of_int i)]. Hash-join and group-by keys must use this
    (via {!Key}/{!Tbl}) or NaN keys crash or silently fail to match. *)

val is_null : t -> bool

val to_float : t -> float
(** Numeric coercion; Bool maps to 0/1. Raises [Invalid_argument] on
    String/Null. *)

val to_int : t -> int
(** Raises [Invalid_argument] unless the value is Int or a Bool. *)

val to_string_value : t -> string
(** Raises [Invalid_argument] unless the value is String. *)

val pp : Format.formatter -> t -> unit
val to_display : t -> string

module Key : Hashtbl.HashedType with type t = t list
(** Composite keys (one value per key column) under {!equal}/{!hash}. *)

module Tbl : Hashtbl.S with type key = t list
(** The hash table every join/group-by in the tree must use: keyed by
    {!Key}, so NaN and cross-type numeric keys behave per {!compare}. *)
