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
(** The row interpreter, the row oracle's evaluator. Raises
    [Invalid_argument] on type errors (e.g. adding strings) and
    [Not_found] on unknown columns; the operators reject such
    expressions before any row ({!type_of}). *)

val eval_bool : Schema.t -> Table.row -> t -> bool
(** Evaluate as a predicate; Null counts as false. *)

val type_of : (string -> Value.ty option) -> t -> Value.ty option
(** The typing rule. Every operator that evaluates expressions applies
    it when it binds them, before any row: [Kernel.compile] (so every
    [Columnar] and bundle operator) and each row [Algebra] operator, so
    the engine and the row oracle accept and reject the same
    expressions, over zero rows too.

    [type_of types e] is [e]'s result kind, given each column's
    ([types name], [None] for a column whose every cell is Null;
    [Not_found] for an unknown one), or [None] when every cell of [e]
    is Null. [Lit Null] is [None]; arithmetic is int on two ints except
    [/], float otherwise, and [None] on a [None] operand; comparisons
    and the connectives are bool (two kinds with no common order
    compare as their {!Value.compare} ranks); an [If] with a [None]
    branch has the other's kind. It raises [Invalid_argument "Expr: …"]
    when the kind would vary by cell ([If] branches of two kinds) or the
    expression can only raise: arithmetic or [Neg] on a string or bool,
    or a non-boolean condition of [And], [Or], [Not] or [If]. The
    operators check their own positions with {!expect}: predicates are
    bool, an extend definition has its declared type, and an aggregate
    source is a number or bool. *)

val expect : Value.ty list -> t -> Value.ty option -> unit
(** [expect kinds e k], with [k] the kind {!type_of} gives [e]: raises
    [Invalid_argument "Expr: …"] unless [k] is [None] or one of
    [kinds]. *)

val columns_used : t -> string list
(** Distinct column names referenced, in first-use order; the handle the
    optimizer uses to decide whether a predicate commutes past an
    operator. *)

val pp : Format.formatter -> t -> unit
