(** Materialized relations: a schema, a row count and the relation's
    cells in one or both of two images — boxed rows (value arrays
    positionally aligned with the schema) and typed columns
    ({!Column.t}, deterministic, one slot per row).

    A table built by {!create}/{!of_rows}/{!append} starts row-backed; one
    built by {!of_columns} (through [Columnar.to_table]) starts
    column-backed and builds no rows. The missing image is built on
    first demand and kept: {!rows} (and {!get}, {!column},
    {!column_floats}, {!iter}, {!append}, {!pp} through it) reads each
    cell with [Column.value]; {!columns} (through [Columnar.of_table])
    builds each column with [Column.of_det_cells]. Either way the cells
    are bit-identical whichever image came first. The first image built
    is published atomically, so readers on several domains share one
    copy. {!cardinality} and {!schema} never build anything.

    Tables are immutable: callers must not mutate the arrays {!rows} or
    {!columns} return, since both are the table's cached images. *)

type row = Value.t array
type t

val create : Schema.t -> row list -> t
(** Validates every row's arity and (non-null) column types. *)

val of_rows : Schema.t -> row array -> t
(** As {!create}; the array becomes the table's row image. *)

val of_columns : Schema.t -> rows:int -> Column.t array -> t
(** A column-backed table of [rows] rows over deterministic columns in
    schema order, in O(columns) time. Raises [Invalid_argument] when a
    column's storage is not of its declared type ({!Column.storage_ty},
    which forces no view). *)

val check_row : Schema.t -> row -> unit
(** Raises the [Invalid_argument] {!of_rows} raises for [row] if its
    arity or a non-null cell's type does not fit the schema. *)

val empty : Schema.t -> t
val schema : t -> Schema.t

val rows : t -> row array
(** The row image, built on first call for a column-backed table. *)

val columns : t -> Column.t array
(** The column image, built on first call for a row-backed table. *)

val cardinality : t -> int
val get : t -> int -> string -> Value.t
(** [get t i col] is row [i]'s value in column [col]. *)

val column : t -> string -> Value.t array
val column_floats : t -> string -> float array
(** Numeric column as floats, skipping no rows; raises on non-numeric. *)

val iter : (row -> unit) -> t -> unit
val append : t -> t -> t
(** Schemas must be equal. *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
(** Render as an aligned text table (default first 20 rows). *)
