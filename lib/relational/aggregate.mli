(** Aggregate functions and the one grouped-accumulation core.

    {!t} is the aggregate every engine's grouping takes: the row oracle
    {!Algebra.group_by} (which re-exports it), {!Columnar.group_by},
    [Reljob.group_by] and the tuple-bundle [Bundle.aggregate]/[query].
    {!grouped} is the accumulator the columnar and bundle engines share:
    one {!Kernel} block sweep feeding flat (group, repetition) cells in
    row order, so both engines give the row oracle's answer on every
    realized instance, bit for bit. *)

type t =
  | Count
  | Count_if of Expr.t  (** rows where the predicate holds *)
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Std of Expr.t  (** sample standard deviation (n−1) *)

val output_type : t -> Value.ty
(** Declared output type: Count/Count_if are Int, the rest Float. *)

val fingerprint : t -> string
(** Canonical one-line rendering ([count], [sum(e)], [avg(e)], [min(e)],
    [max(e)], [count_if(e)], [std(e)], expressions printed with
    {!Expr.pp}): a component of serving cache keys and shard routing, so
    its bytes never change. *)

val check : (string -> Value.ty option) -> t -> unit
(** The bind-time check of an aggregate's argument over columns of the
    given kinds ({!Expr.type_of}): [Count_if]'s predicate must be bool,
    and the source of [Sum], [Avg], [Std], [Min] and [Max] a number or
    bool; anything else raises [Invalid_argument "Expr: …"]. *)

type compiled = private { agg : t; arg : Kernel.node option }
(** An aggregate with its argument compiled: the source expression, or
    [Count_if]'s predicate; [None] for [Count]. *)

val compile : Kernel.env -> t -> compiled
(** Compiles the argument and applies {!check}'s rule to it, so a
    rejected aggregate raises before any row is read. *)

type result = {
  n_groups : int;  (** 1 for a global aggregate, even over no rows *)
  firsts : int array;
      (** each group's first row, in first-seen group order; empty for a
          global aggregate *)
  value : int -> int -> int -> Value.t;
      (** [value a g r]: aggregate [a] of group [g] in repetition [r] *)
}

val grouped :
  pool:Mde_par.Pool.t option ->
  site:string ->
  presence:Column.Bitset.t option ->
  where:Kernel.node option ->
  keys:Column.t array ->
  rows:int ->
  reps:int ->
  compiled array ->
  result
(** Group [rows × reps] cells by the deterministic [keys] (one
    {!Keycode} word per row, first-seen order, NaN keys one group; no
    keys: one global group) and aggregate each group's cells per
    repetition. A [presence] bitset limits the cells swept, and a
    [where] predicate keeps only the cells it holds on. One
    {!Kernel.sweep} at pool site [site] evaluates the blocks (on the
    pool when given) and accumulates them in row order, so float sums
    keep the row oracle's bits, pooled or not.

    Values follow {!Algebra.group_by}: Null arguments are skipped;
    Count/Count_if are [Int], Sum is [Float 0.] over no values, and
    Avg/Min/Max are [Null] over no values, Std under two. Min/Max keep
    {!Value.compare}'s order and its first of equals, so a NaN wins Min
    and loses Max to any number, and emit the winner as [Float].
    Raises [Invalid_argument] on an uncertain key column. *)
