(** Table schemas: ordered, named, typed columns. Column lookup is O(1)
    via an internal index so that expression evaluation inside tight
    Monte Carlo loops stays cheap. *)

type column = { name : string; ty : Value.ty }
type t

val create : column list -> t
(** Raises [Invalid_argument] on duplicate column names. *)

val of_list : (string * Value.ty) list -> t
val columns : t -> column list

val column_array : t -> column array
(** The columns in order, without a copy: callers must not mutate it. *)

val arity : t -> int
val column_index : t -> string -> int
(** Raises [Not_found] for an unknown column. *)

val mem : t -> string -> bool
val column_type : t -> string -> Value.ty
val column_names : t -> string list

val concat : t -> t -> t
(** Schema of a join result. Raises [Invalid_argument] on a name clash —
    rename columns first. *)

val rename : t -> (string * string) list -> t
(** Apply old→new renames; unknown old names raise [Not_found]. *)

val project : t -> string list -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
