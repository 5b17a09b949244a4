(** The columnar relational engine: {!Algebra}'s operators over typed
    column storage ({!Column}) with {!Kernel}-compiled expressions.

    A value of type {!t} is the deterministic reps=1 specialization of
    the tuple-bundle layout: one typed column per schema column (floats
    in a float64 bigarray, ints/bools unboxed, strings
    dictionary-coded), nulls in a packed {!Column.Bitset}. Each operator
    has one path, picked from its inputs: predicates, computed columns
    and aggregate sources are typed when bound ({!Expr.type_of}) and run
    as {!Kernel} block programs, which cover every expression the typing
    rule accepts; every key — group, join, distinct and sort — packs
    into {!Keycode} words, whatever its column types.

    Operator outputs are views: [select], [equi_join], [order_by],
    [distinct], [limit] and [group_by]'s key columns build each output
    column with {!Column.gather}, which copies nothing until the column
    is first read. A chain of operators then gathers each column once,
    straight from its scan column, and never gathers a column that
    nothing downstream reads. Expressions ({!Kernel}) and key encoding
    ({!Keycode}) read a view through its index without forcing it, so
    a column that operators only read is never gathered at all; sort
    keys and dictionary-coded key components still force.

    The contract, property-tested in [test/test_relational.ml]: every
    operator returns exactly what its {!Algebra} twin returns on the
    same input — same rows in the same order with bit-identical floats
    — with or without a pool — and raises the same [Invalid_argument]
    on a rejected expression, before reading any row. Group
    aggregates feed rows in row order (float sums are order-sensitive),
    joins emit left-order × right-order pairs, sorts are stable with
    the same [Value.compare] key order. *)

type t

val of_table : Table.t -> t
(** The table's column image: O(1) when the table already has one (it
    came from {!to_table}, or an earlier [of_table] built it), otherwise
    one O(rows × columns) conversion that is stored on the table, so
    later calls on the same table — a catalog scan in every query — are
    O(1) and return physically the same columns. *)

val to_table : t -> Table.t
(** A column-backed table over the same columns: O(columns), builds no
    rows ({!Table.rows} builds them on first read). *)

val schema : t -> Schema.t
val row_count : t -> int

val select : ?pool:Mde_par.Pool.t -> Expr.t -> t -> t
(** σ, preserving row order: one block sweep keeps each block's
    survivors (a byte each), and their row indices fill an index vector
    of exactly their number. When every input column views one shared
    index ({!Column.bases}), the vector holds base rows, so the output
    views compose nothing. With [?pool] the blocks are tested on the
    pool. *)

val project : string list -> t -> t
(** π onto existing columns — O(1) per column, nothing is copied. *)

val extend : ?pool:Mde_par.Pool.t -> (string * Value.ty * Expr.t) list -> t -> t
(** Append computed columns; every defining expression reads the input
    schema (not columns added by earlier defs), as {!Algebra.extend}.
    Each must be of its declared type or always Null: all are typed
    before any is evaluated, and another kind raises
    [Invalid_argument "Expr: …"]. *)

val equi_join : ?pool:Mde_par.Pool.t -> on:(string * string) list -> t -> t -> t
(** Inner hash join through {!join_index} — the plan executor's join.
    Row order and null-key behavior match {!Algebra.equi_join}; [on = []]
    is the cross product. When every left row matches exactly once, the
    left columns pass through as they are (no index, no view). A side
    whose columns all view one shared index ({!Column.bases}, as every
    select or join output does) gets its pair indices written already
    composed onto its bases, and its output views use them as they
    are; a side of built columns gets row indices, and a side mixing
    sources is composed per source by {!Column.gather}. When the left
    side passes through, the right index takes the place of the probe
    rows' key ids. *)

val join_index :
  ?pool:Mde_par.Pool.t ->
  Column.t array * int ->
  Column.t array * int ->
  int array option * int array
(** [join_index (left_keys, left_rows) (right_keys, right_rows)]: the
    matching (left row, right row) pairs of an inner equi-join on the
    given deterministic key columns, left rows in order and each left
    row's matches in right order, as a left and a right index of
    exactly the pairs' number; rows with a Null key component never
    match. A missing left index ([None]) means every left row has
    exactly one match: pair [k] is left row [k] and right row
    [ri.(k)], so the pairs number [left_rows] and the left side needs
    no index. Both sides code one unboxed {!Keycode} word per row. The
    key table (direct over a narrow key span, hashed otherwise: see
    {!Keycode.tbl_create}), with match chains in row order, goes over
    the smaller side (the right on a tie), and the other side looks its
    rows up in row chunks; the pairs come out in the same order
    whichever side holds the table. The indices are row numbers of the
    given key columns ({!equi_join} runs the same routine writing base
    rows). With [?pool] the key encoding and the lookups run on the
    pool; the output is the same. Raises [Invalid_argument] on an
    uncertain key column. *)

val group_by :
  ?pool:Mde_par.Pool.t ->
  keys:string list ->
  aggs:(string * Aggregate.t) list ->
  t ->
  t
(** Grouped aggregation with {!Algebra.group_by}'s exact semantics:
    first-seen group order, NaN keys collapse to one group, [keys = []]
    yields one global row even on empty input. The accumulation is
    {!Aggregate.grouped} at one repetition, the core the tuple-bundle
    engine shares: each row's composite key is one {!Keycode} word,
    aggregate sources run as one block sweep and accumulate unboxed, in
    row order, and Min/Max keep [Value.compare]'s order (a NaN wins Min)
    and the first of equals, emitting the winner as Float. The output
    columns are built directly (keys gathered from each group's first
    row). With [?pool] the key encoding and the blocks' evaluation run
    on the pool, and accumulation replays in row order, so pooled
    results are bit-identical to sequential ones. *)

val order_by : ?descending:bool -> string list -> t -> t
(** Stable sort under [Value.compare] via {!Keycode.sort_perm}: one
    packed order-preserving image per row (the row index in the low
    bits as the tiebreak) and a flat monomorphic int sort, or a
    word-by-word comparison when the image needs more than one word. *)

val distinct : ?pool:Mde_par.Pool.t -> t -> t
(** First occurrence of each distinct row, in row order, keyed by packed
    all-column {!Keycode} words; a zero-column table keeps its first
    row. *)

val limit : int -> t -> t
(** Raises [Invalid_argument] on a negative count. *)
