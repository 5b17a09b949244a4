(** Block kernels: {!Mde_relational.Expr} trees compiled to typed loops
    over blocks of slots with a selection vector — the MonetDB/X100
    design (Boncz, Zukowski, Nes, CIDR 2005), and MCDB's tuple-bundle
    sweep (§2.1) done a block at a time.

    A compiled node fills an unboxed float, int (bools as 0/1) or string
    vector, with null flags when it can be Null, at the selected
    positions of a block, one tight loop per operator; a predicate
    narrows the selection instead; a comparison of an int, float or bool
    column with a literal narrows in one loop that reads the column's
    storage in place, and {!leaf_column} lets an aggregate read a bare
    column the same way. Coverage: typed column reads,
    non-Null literals, [+ - *] (int on two ints, else float), [/]
    (float), [Neg], comparisons of two ints, two numerics (exact
    int/float, [Float.compare] for floats: [Value.compare] bit for bit),
    two strings or two bools, [And]/[Or]/[Not] (Null as false), [Is_null]
    and [If] with same-kind branches. Anything else — boxed columns,
    [Lit Null], cross-kind comparisons, mixed-kind [If] — is a fallback
    node: it realizes each selected cell's row and runs {!Expr.eval}
    into the same vectors, with the same bits and the same errors.
    Compiled nodes never raise. *)

val block : int
(** Slots per block: 256, so each vector of scratch fits the minor heap. *)

type env
(** Named columns. An expression reads a deterministic column in place,
    through a {!Column.gather} view's index when the column is an unread
    view, so compiling and sweeping it forces no deterministic view; an
    uncertain column is forced when an expression first reads it. Not
    domain-safe: compile on one domain, then sweep. *)

type node
type kind = Int | Float | Bool | String | Boxed  (** [Boxed]: a fallback *)

val env_of_columns : Schema.t -> Column.t array -> env

val env_extend : env -> (string * node) list -> env
(** Bind definitions by name. An expression reading a fallback
    definition falls back, and a fallback reads only base columns. *)

val compile : env -> Expr.t -> node
val compiled : node -> bool

val unc : node -> bool
(** Whether the node reads an uncertain column; a certain node may
    sweep with [reps = 1]. *)

val kind : node -> kind

(** {2 Blocks} *)

type selection = private { pos : int array; mutable n : int }
(** Positions [pos.(0) < … < pos.(n-1)] of the current block. *)

type frame = private {
  reps : int;  (** slots per row of the sweep *)
  rowix : int array;  (** row of each position *)
  all : selection;  (** the block's initial selection *)
  mutable lo : int;  (** slot of position 0 *)
}
(** One block: position [k] is slot [lo + k] ([i * reps + r] for row
    [i = rowix.(k)], repetition [r]). *)

type 'a vec = { data : 'a; nulls : Bytes.t; fill : selection -> unit }
(** [fill s] writes [data.(k)] at each position [k] of [s]; a non-zero
    [nulls.(k)] marks Null ([nulls] is empty if the node never is). *)

val filter : node -> frame -> selection * (selection -> unit)
(** [(out, run)]: [run s] sets [out] to the positions of [s] where the
    node holds, under [eval_bool] semantics (Null is false, a
    non-boolean raises). *)

val floats : node -> frame -> float array vec
(** The [Value.to_float] image; strings raise as it does. *)

(** {2 Columns read in place} *)

type store = Sfloat of Column.floats | Sint of int array | Sbool of int array  (** bools: non-zero is true *)

type column = private {
  store : store;
  nulls : Column.Bitset.t option;
  sdet : bool;
  direct : bool;
  ix : int array;
}
(** An int, float or bool column as its leaf reads it: the storage, or
    an unread view's base and index ([ix], empty when [direct]). *)

val leaf_column : node -> column option
(** The column a bare column leaf reads, for loops that read it where it
    is stored rather than through a vector; [None] for any other node. *)

val slot : column -> frame -> int -> int
(** The storage slot that position [k] of the frame reads. *)

val null : column -> frame -> int -> bool
(** Whether position [k]'s cell is Null. *)

val boxed : node -> frame -> Value.t array vec

val sweep :
  ?pool:Mde_par.Pool.t ->
  site:string ->
  ?presence:Column.Bitset.t ->
  rows:int ->
  reps:int ->
  (frame -> (unit -> unit) * (unit -> unit)) ->
  unit
(** Walk [rows × reps] slots in blocks of whole rows, at most {!block}
    slots unless one row has more. [body f] binds its views to a frame
    and returns [(eval, consume)]; each block is loaded into a frame,
    then [eval ()] and [consume ()] run. [?presence] limits each
    block's initial selection to the present cells. With a pool of
    more than one domain, waves of blocks [eval] on the pool, one frame
    each, and [consume] replays them on the caller in block order, so
    accumulation sees the sequential order. Scratch is one block per
    frame, never [rows]. *)

val materialize :
  ?pool:Mde_par.Pool.t -> ty:Value.ty -> rows:int -> reps:int -> node -> Column.t
(** The node's [rows × reps] cells as a column, deterministic iff [not
    (unc node)]. Numeric and bool storage follows the node's kind;
    strings and fallbacks go through the typed builder for [ty]
    ([Tstring] for string nodes), degrading to boxed storage as
    {!Column.of_cells} does. *)
