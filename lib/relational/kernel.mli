(** Compilation of {!Mde_relational.Expr} trees into typed closures over
    columnar storage ({!Column}).

    A compiled node evaluates one cell [(row, rep)] with no [Value.t]
    boxing: int-valued expressions run on native ints, float-valued ones
    on a float64 bigarray sweep, string equality on dictionary entries.
    Null is tracked by a separate is-null closure, so the value closure
    of a null cell may return a dummy — consumers must consult the null
    closure first, exactly as the compilers below do.

    Coverage: column reads of typed storage, literals (except [Lit
    Null]), [+ - *] (int when both sides are int, float otherwise, as
    the interpreter's [arith]), [/] (always float), [Neg], comparisons
    between two ints ([Int.compare] semantics), mixed numerics
    ([Float.compare] semantics — NaN below everything, matching
    [Value.compare] bit for bit), two strings, or two bools; [And]/[Or]/
    [Not] over boolean operands (Null-as-false, as [eval_bool]);
    [Is_null]; [If] with boolean condition and same-kind branches.
    Everything else — boxed fallback columns, [Lit Null], cross-kind
    comparisons, mixed-kind [If] branches — makes {!compile} return
    [None] and the caller falls back to the interpreter, which by
    construction gives the same answer (or raises the same error).
    {!Mde_relational.Expr.typeof} is the static side of this contract. *)


type env
(** Named compiled columns: the base bundle columns plus any computed
    nodes a fused plan has introduced. A base column's node is built
    when an expression first references it, so a column no compiled
    expression reads is never forced ({!Column.gather} views stay
    unread). Environments are not domain-safe: compile on one domain,
    then share the compiled nodes. *)

type node
(** A compiled expression. *)

val env_of_columns : Schema.t -> reps:int -> Column.t array -> env
val env_extend : env -> (string * node) list -> env

val compile : env -> Expr.t -> node option
(** [None] = not covered; evaluate with {!Expr.eval} instead. *)

val node_unc : node -> bool
(** Whether the node reads any uncertain column: [false] means every
    repetition yields the same value, so one evaluation at rep 0
    covers them all. *)

val node_value : node -> int -> int -> Value.t
(** Boxed read-back of one cell — for deterministic group keys and
    materializing computed columns into instances. *)

val as_pred : node -> (int -> int -> bool) option
(** Predicate view with [eval_bool] semantics (Null counts false);
    [None] unless the node is boolean. *)

type cell = {
  value : int -> int -> float;  (** [Value.to_float] image; see [null] *)
  null : int -> int -> bool;  (** the cell contributes nothing when true *)
  cell_unc : bool;
}

val as_float_cell : node -> cell option
(** Aggregation view: numeric and bool nodes coerce as [Value.to_float];
    string nodes return [None] (the interpreter path raises, as it always
    did). *)

val materialize : ?pool:Mde_par.Pool.t -> rows:int -> reps:int -> node -> Column.t
(** Evaluate a node into a typed column (deterministic iff [not
    (node_unc node)]). Row-chunked over the pool when given — each chunk
    writes disjoint rows, so the result is bit-identical to the
    sequential fill. String nodes build their dictionary sequentially. *)
