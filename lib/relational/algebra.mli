(** Relational algebra over materialized {!Table}s, one row at a time.

    The row engine: selection, projection with computed columns,
    renaming, hash equi-joins plus general theta joins, grouped
    aggregation, sorting, distinct, union, limit, each written the
    plainest way over boxed rows. Production queries run on {!Columnar};
    this module is the reference its operators, {!Plan.execute},
    [Reljob] and [Bundle] are tested against, and the engine behind
    {!Plan.execute_rows}. Its {!aggregate} type is {!Aggregate.t},
    re-exported.

    Every operator that takes expressions types them before reading a
    row, by {!Expr.type_of} and the columnar engine's rule for its
    positions: predicates are bool, an extend definition has its
    declared type, an aggregate's source is a number or bool
    ({!Aggregate.check}); a rejected expression raises
    [Invalid_argument "Expr: …"] even over no rows. Any of them may be
    always Null. *)

val select : Expr.t -> Table.t -> Table.t
(** σ: keep rows where the predicate is true. *)

val project : string list -> Table.t -> Table.t
(** π onto existing columns (order given by the list). *)

val extend : (string * Value.ty * Expr.t) list -> Table.t -> Table.t
(** Append computed columns (name, declared type, defining expression). *)

val rename : (string * string) list -> Table.t -> Table.t

type join_kind = Inner | Left
(** Left joins pad unmatched left rows with Nulls on the right. *)

val equi_join :
  ?kind:join_kind -> on:(string * string) list -> Table.t -> Table.t -> Table.t
(** Hash join on equality of the paired (left column, right column) keys.
    Column names must not clash between the two inputs; {!rename} first.
    Build side is the right input. *)

val theta_join : on:Expr.t -> Table.t -> Table.t -> Table.t
(** Nested-loop join with an arbitrary predicate over the concatenated
    schema. *)

val semi_join : on:(string * string) list -> Table.t -> Table.t -> Table.t
(** Left rows with at least one key match on the right (each left row at
    most once) — the "members of this subpopulation who are infected"
    query shape. *)

val anti_join : on:(string * string) list -> Table.t -> Table.t -> Table.t
(** Left rows with no key match on the right. *)

(** Aggregate functions for {!group_by}: {!Aggregate.t}, re-exported. *)
type aggregate = Aggregate.t =
  | Count
  | Count_if of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Std of Expr.t  (** sample standard deviation (n−1) *)

val group_by :
  keys:string list -> aggs:(string * aggregate) list -> Table.t -> Table.t
(** Output schema: the key columns followed by one column per aggregate
    (Count/Count_if are Int, others Float). With [keys = []] the result
    is a single global-aggregate row. Groups appear in first-seen order.
    Null inputs are skipped by Sum/Avg/Min/Max/Std. Min/Max pick their
    winner by {!Value.compare} (exact across Int and Float) and emit it
    converted to Float, so an Int column's [2^53+1] comes out as
    [2^53.]. *)

val order_by : ?descending:bool -> string list -> Table.t -> Table.t
(** Stable lexicographic sort on the listed columns. *)

val distinct : Table.t -> Table.t
val union : Table.t -> Table.t -> Table.t
(** Bag union (no duplicate elimination); schemas must be equal. *)

val limit : int -> Table.t -> Table.t
(** Raises [Invalid_argument] on a negative count. *)
