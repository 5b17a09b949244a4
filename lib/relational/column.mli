(** Typed columnar storage for the tuple-bundle engine.

    A bundle stores each attribute as one column rather than boxing every
    cell as a [Value.t]: float attributes live in a float64
    [Bigarray.Array1] (no per-cell boxing, contiguous repetition sweeps),
    int and bool attributes in [int array]s, and string attributes as
    dictionary codes over a per-column dictionary. A column is either
    {e deterministic} (one slot per physical row — every repetition
    agrees) or {e uncertain} (rows × reps slots, repetition-major within
    a row: slot of [(i, r)] is [i * reps + r]). Every non-null cell has
    the column's one type: a cell that contradicts it raises
    [Invalid_argument] where it is written.

    {!Bitset} is the packed rows × reps presence bitmap (1 bit per cell,
    8× to 64× smaller than the [bool array array] it replaced) with
    popcount-based survivor counting. Each row's bits start on a byte
    boundary, so parallel workers that own disjoint contiguous row ranges
    touch disjoint bytes — row-chunked writes need no synchronization. *)


module Bitset : sig
  type t

  val create : rows:int -> reps:int -> bool -> t
  (** All bits initialized to the given value. Storage is
      [(reps + 7) / 8] bytes per row. *)

  val rows : t -> int
  val reps : t -> int
  val get : t -> int -> int -> bool
  val set : t -> int -> int -> unit
  val unset : t -> int -> int -> unit

  val row_positions : t -> int -> base:int -> int array -> int -> int
  (** [row_positions t i ~base out m] writes [base + r] for each set bit
      [r] of row [i], ascending, into [out] from index [m]; returns the
      next free index. A byte at a time: absent repetitions cost
      nothing. *)

  val clear_row : t -> int -> unit
  (** Zero every bit of one row (a deterministic predicate rejected the
      tuple in all repetitions at once). *)

  val copy : t -> t

  val popcount : t -> int
  (** Total set bits (table-driven byte popcount). *)

  val row_popcount : t -> int -> int
  (** Set bits in one row — repetitions in which the row survives. *)

  val and_rows : dst:t -> int -> a:t -> int -> b:t -> int -> unit
  (** [and_rows ~dst k ~a i ~b j]: row [k] of [dst] becomes the bitwise
      AND of row [i] of [a] and row [j] of [b]. All three must share
      [reps]. The join's presence conjunction, one byte at a time. *)
end

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val det : t -> bool
val rows : t -> int
val reps : t -> int

val of_cells : ty:Value.ty -> rows:int -> reps:int -> (int -> int -> Value.t) -> t
(** Build from a cell reader [get i r], read row by row, into the typed
    storage [ty] selects (raising [Invalid_argument] on a cell of
    another type); a column whose every row holds identical cells
    across its repetitions is stored deterministically, as by
    {!of_realizations}. *)

val of_realizations : ty:Value.ty -> t array -> t
(** [of_realizations ~ty cols] is the column whose repetitions are
    [cols.(0)]'s, then [cols.(1)]'s, and so on (all of equal length): a
    bundle column assembled from realizations generated apart, one
    repetition or a run of them each. When every [cols.(k)] is
    deterministic with the storage of [cols.(0)], the result shares that
    storage. Otherwise the cells are interleaved into rows × reps typed
    storage of type [ty] (copied only when there are several [cols];
    a cell of another type raises [Invalid_argument]), and a column
    whose every row holds
    identical cells across all repetitions ({!Value.identical}: same
    constructor, bitwise floats, so [0.] and [-0.] stay apart; what a
    Null slot stores is not compared) is stored deterministically.
    Raises [Invalid_argument] on no columns or columns of different
    lengths. *)

val of_det_cells : ty:Value.ty -> rows:int -> reps:int -> (int -> Value.t) -> t
(** Deterministic column from a per-row reader (wrapping a plain table);
    [reps] is the owning bundle's repetition count. *)

(** {2 Builder}

    The one typed fill behind every constructor above: cells are
    appended one at a time and written straight into the typed storage
    [ty] selects — unboxed floats, ints, 0/1 bools or dictionary codes —
    with Null cells marked in the null mask as they arrive. *)

type builder

val builder : ty:Value.ty -> det:bool -> reps:int -> rows:int -> builder
(** An empty builder for a column of [reps] repetitions ([det]: one slot
    per row, else rows × reps slots, repetition-major within a row), with
    room for [rows] rows; it grows as needed. *)

val push : builder -> Value.t -> unit
(** Append the next slot's cell. Raises [Invalid_argument] when the
    cell contradicts the builder's type; the builder is then
    unusable. *)

val finish : builder -> t
(** The column of the cells pushed so far (a whole number of rows). *)

(** Raw constructors for compiled kernels that have already produced
    typed storage. [rows] is inferred from the data length; [nulls], when
    present, must have geometry rows × (det ? 1 : reps). *)

val of_floats : det:bool -> reps:int -> ?nulls:Bitset.t -> floats -> t

val of_ints : det:bool -> reps:int -> ?nulls:Bitset.t -> int array -> t

val of_bools : det:bool -> reps:int -> ?nulls:Bitset.t -> int array -> t
(** Bool storage is 0/1 ints; a distinct constructor so read-back knows
    to rebuild [Value.Bool]. *)

(** The kernel compiler's window into the storage. [nulls = None] means
    the column has no Null cells. *)
type view =
  | Vfloat of { vdet : bool; data : floats; nulls : Bitset.t option }
  | Vint of { vdet : bool; data : int array; nulls : Bitset.t option }
  | Vbool of { vdet : bool; data : int array; nulls : Bitset.t option }
  | Vstring of { vdet : bool; codes : int array; dict : string array }

val view : t -> view
(** The column's storage, forcing a view: for readers that need one
    flat array. *)

val source : t -> view * int array option
(** The column's storage without forcing it. A built column returns its
    storage and [None]; a view not yet read returns its base's storage
    and its row index [idx] (row [k] of the column is row [idx.(k)] of
    the base, and so are its null bits). Readers that visit rows through
    [idx] copy nothing, and the view stays unread. *)

val value : t -> int -> int -> Value.t
(** Cell [(i, r)] as a [Value.t]; deterministic columns ignore [r].
    Forces a view. *)

val gather : t array -> int array -> t array
(** [gather cols idx] is, for each column, a {e view} whose row [k] is
    row [idx.(k)] — how select, join, sort and limit build their
    outputs. A view costs O(1) per column: nothing is copied until the
    view's storage is first read ({!view} or {!value}), which gathers
    its rows (a dictionary is shared, not copied) and publishes them by
    compare-and-set, so domains forcing one view at once all get the
    first storage published. {!det}, {!rows}, {!reps}, {!source} and
    {!storage_ty} never force.

    Gathering a view composes the index vectors, so a view's base is
    always a built column, never an intermediate view: a chain of
    gathers copies each column once, from that base, when it is first
    read, and never copies a column no one reads. Each distinct source
    index vector among [cols] is composed once per call, in
    O([Array.length idx]). A view keeps its base column alive until it
    is forced, and then drops it. *)

val bases : t array -> (t array * int array) option
(** [Some (bases, ix)] when every column of [cols] is a view not yet
    read, all through the one index vector [ix] (physically shared, as
    the columns of every select or join output are): [bases.(j)] is
    column [j]'s base as a built column, and row [k] of column [j] is
    row [ix.(k)] of [bases.(j)]. An operator that reads [cols] through
    [ix] can then write its output index already composed onto the
    bases: [gather bases (Array.map (Array.get ix) idx)] has the rows
    of [gather cols idx] without composing. [None] for no columns, a
    built column or a second index. Never forces. *)

val materialized : t -> bool
(** Whether the column's storage is built: [false] for a view not yet
    read. Never forces. *)

val storage_ty : t -> Value.ty
(** The type every non-null cell of the storage has. Never forces: a
    view reports its base's storage. *)
