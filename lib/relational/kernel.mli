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
    column the same way.

    {!compile} types the expression first ({!Expr.type_of}), raising
    on the shapes that rule rejects, and then compiles every shape it
    accepts: column reads, literals, [+ - *] (int on two ints, else
    float), [/] (float), [Neg], comparisons (two ints or two bools as
    ints, exact int/float, [Float.compare] for floats, strings by
    [String.compare], and two kinds with no common order as the
    constant their {!Value.compare} ranks give: [Value.compare] bit for
    bit, false on a Null side), [And]/[Or]/[Not] (Null as false),
    [Is_null] and [If]. An expression that is always Null ([Lit Null],
    arithmetic on one) takes the kind its context needs: the other [If]
    branch's, or the declared type {!materialize} is given. There is no
    other path: compiled nodes never raise. *)

val block : int
(** Slots per block: 256, so each vector of scratch fits the minor heap. *)

type env
(** Named columns. An expression reads a deterministic column in place,
    through a {!Column.gather} view's index when the column is an unread
    view, so compiling and sweeping it forces no deterministic view; an
    uncertain column is forced when an expression first reads it. Not
    domain-safe: compile on one domain, then sweep. *)

type node

val env_of_columns : Schema.t -> Column.t array -> env
(** Each column's storage must hold its declared type
    ({!Column.storage_ty}); an expression reading one that does not
    raises [Invalid_argument] when compiled. *)

val env_extend : env -> (string * node) list -> env
(** Bind definitions by name; an expression reading one reads its node,
    typed by the node's {!kind}. *)

val compile : env -> Expr.t -> node
(** Raises what {!Expr.type_of} raises on the expression, before any
    row is read. *)

val compile_as : env -> Value.ty -> Expr.t -> node
(** {!compile}, then {!Expr.expect}: the node must be of the given kind
    or always Null. A select predicate is compiled as bool, an extend
    definition as its declared type. *)

val kind : node -> Value.ty option
(** The node's kind, as {!Expr.type_of} gives it; [None] when every
    cell is Null. *)

val unc : node -> bool
(** Whether the node reads an uncertain column; a certain node may
    sweep with [reps = 1]. *)

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
    node holds, under [eval_bool] semantics (Null is false). Raises
    [Invalid_argument] on a node that is not bool. *)

val floats : node -> frame -> float array vec
(** The [Value.to_float] image of an int, float or bool node. Raises
    [Invalid_argument] on a string node. *)

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
(** The node's [rows × reps] cells as a column of the node's kind,
    deterministic iff [not (unc node)]; a node that is always Null
    gives an all-Null column of [ty], its declared type. Strings go
    through the typed builder and are stored as {!Column.of_cells}
    stores them. *)
