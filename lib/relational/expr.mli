(** Scalar expressions over table rows: the WHERE / computed-column
    language of the engine. SQL three-valued logic is approximated by
    letting Null propagate through arithmetic and comparisons evaluate to
    false when either side is Null (sufficient for the workloads here). *)

type t =
  | Col of string
  | Lit of Value.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Neg of t
  | Eq of t * t
  | Ne of t * t
  | Lt of t * t
  | Le of t * t
  | Gt of t * t
  | Ge of t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | If of t * t * t  (** [If (cond, then_, else_)] *)

val col : string -> t
val int : int -> t
val float : float -> t
val string : string -> t
val bool : bool -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( = ) : t -> t -> t
val ( <> ) : t -> t -> t
val ( < ) : t -> t -> t
val ( <= ) : t -> t -> t
val ( > ) : t -> t -> t
val ( >= ) : t -> t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val not_ : t -> t

val eval : Schema.t -> Table.row -> t -> Value.t
(** Raises [Invalid_argument] on type errors (e.g. adding strings) and
    [Not_found] on unknown columns. *)

val eval_bool : Schema.t -> Table.row -> t -> bool
(** Evaluate as a predicate; Null counts as false. *)

val truth : Value.t -> bool
(** [eval_bool]'s reading of a value: [Bool b] is [b], Null is false,
    and anything else raises [Invalid_argument]. *)

val columns_used : t -> string list
(** Distinct column names referenced, in first-use order; the handle the
    optimizer uses to decide whether a predicate commutes past an
    operator. *)

val pp : Format.formatter -> t -> unit
