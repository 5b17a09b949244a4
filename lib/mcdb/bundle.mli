(** Tuple-bundle query execution (§2.1), columnar edition.

    MCDB "executes a query plan only once, processing tuple bundles
    rather than ordinary tuples": each uncertain attribute of a tuple
    carries its instantiations across all Monte Carlo repetitions, while
    deterministic attributes are stored once. Storage is columnar
    ({!Column}): float attributes in float64 bigarrays, int/bool in int
    arrays, strings dictionary-encoded, and presence as a packed
    rows × reps bitset with popcount survivor counting. Predicates,
    computed columns and aggregate arguments run as {!Kernel} block
    programs over the cells, the presence bitset as the initial
    selection. Every expression is typed when an operator binds it
    ({!Mde_relational.Expr.type_of}), so a rejected one raises the row
    oracle's [Invalid_argument] before any cell is read, and every
    accepted one compiles. With a live {!Mde_obs} registry installed,
    every operator sweep records [mde_bundle_kernel_seconds] and
    [mde_bundle_cells_total].

    Determinism contract: construction pre-splits one RNG stream per
    repetition (so realization [r] of {!to_instances} is bit-identical to
    element [r] of {!Stochastic_table.instantiate_many} with the same
    seed), and the [?pool] paths, which evaluate blocks on the pool and
    replay them in order, produce bit-identical bundles and aggregates
    to their sequential runs. The
    naive path ({!to_instances} + {!Mde_relational.Algebra}) is the
    reference the bundle engine is tested and benchmarked against.

    Restrictions (documented MCDB-style): bundle construction requires a
    row-stable VG function (exactly one output row per driver row), and
    join keys / group-by keys must be deterministic columns. The general
    case falls back to {!Stochastic_table.instantiate_many} + ordinary
    queries; {!to_instances} lets tests check the two paths agree. *)

open Mde_relational

type t

val of_stochastic_table :
  ?pool:Mde_par.Pool.t -> Stochastic_table.t -> Mde_prob.Rng.t -> n_reps:int -> t
(** Instantiate all repetitions at once, one pre-split RNG stream per
    repetition ([?pool] parallelizes over repetitions, bit-identically).
    [Stochastic_table.realize] — the routine behind
    [Stochastic_table.instantiate] — steps the repetitions' streams in
    lock-step, so realization [r] is naive instance [r] by construction,
    and [params] runs once per driver row (once per domain's run of
    repetitions on a pool). Each row's cells are written side by side,
    straight into the column's rows × reps storage (on a pool, each
    run's into its own, interleaved by {!Column.of_realizations} after
    the join): a driver column every repetition passes through is
    shared, not copied, and one whose cells are identical in every
    repetition (same constructor, bitwise floats) is stored
    deterministically.
    Raises [Invalid_argument] if the table's VG function is not
    row-stable, emits other than one row for a driver row, or
    [n_reps < 1], and, like [Stochastic_table.instantiate], when a
    combined row has the wrong arity or a mistyped cell. *)

val of_table : Table.t -> n_reps:int -> t
(** Wrap a deterministic table (all columns deterministic, all rows
    present). *)

val schema : t -> Schema.t
val n_reps : t -> int

val row_count : t -> int
(** Physical tuples (independent of presence). *)

val survivors : t -> int
(** Present (row, repetition) cells — one popcount sweep of the packed
    presence bitmap. A fresh bundle has [row_count * n_reps]. *)

val row_survivors : t -> int -> int
(** Repetitions in which row [i] is present. *)

val realize_row : t -> int -> int -> Table.row
(** [realize_row b i r]: row [i]'s values in repetition [r]. *)

val present : t -> int -> int -> bool

val column : t -> string -> Column.t
(** The named attribute's storage: deterministic (one slot per row), or
    rows × reps slots. Raises [Not_found] for an unknown name. *)

val select : ?pool:Mde_par.Pool.t -> Expr.t -> t -> t
(** Narrow presence by the predicate, tested on the present cells
    (a deterministic predicate once per tuple). With [?pool] the blocks
    are tested on the pool; the result is bit-identical. *)

val project : string list -> t -> t

val extend : ?pool:Mde_par.Pool.t -> (string * Value.ty * Expr.t) list -> t -> t
(** Computed columns, materialized as typed columns of their declared
    types (a definition of another kind raises [Invalid_argument], and
    one that is always Null is an all-Null column). A column is
    deterministic when the expression touches only deterministic
    inputs, and a string column also when its rows agree across
    repetitions. *)

val join : on:(string * string) list -> t -> t -> t
(** Hash equi-join on deterministic key columns (keyed by
    {!Value.hash}, so NaN keys match themselves); output presence is
    the byte-wise AND of the inputs' presence. Raises
    [Invalid_argument] if a key column is uncertain or the repetition
    counts differ. *)

val aggregate :
  ?pool:Mde_par.Pool.t ->
  ?keys:string list ->
  (string * Aggregate.t) list ->
  t ->
  (Table.row * float array array) list
(** Grouped aggregation in one pass: for each group (keyed on
    deterministic columns; [?keys] defaults to none, i.e. one global
    group) and each named aggregate, the per-repetition aggregate values
    (array of length [n_reps]). The sweep is {!Aggregate.grouped}, the
    accumulator {!Columnar.group_by} runs too, over the present cells:
    repetition [r]'s values are {!Algebra.group_by}'s on realized
    instance [r], bit for bit, with counts as floats and Null as [nan].
    So empty groups in a repetition yield [nan] for Avg/Min/Max/Std and
    0 for Count/Count_if/Sum, and NaN follows {!Value.compare}: [nan]
    wins Min, and loses Max to any number. With [?pool], blocks are
    evaluated on the pool and the accumulation replayed in row order,
    so grouped sums are bit-identical to the sequential pass. *)

type plan = {
  where_ : Expr.t option;  (** selection over the base schema *)
  derive : (string * Value.ty * Expr.t) list;  (** computed columns *)
  group_keys : string list;
  aggs : (string * Aggregate.t) list;  (** over the derived schema *)
}
(** A select → extend → aggregate pipeline, the row-stable query shape
    the serving layer pushes through the bundle engine. *)

val plan_fingerprint : plan -> string
(** Canonical one-line rendering of a plan (expressions printed with
    {!Mde_relational.Expr.pp}) — stable across runs, the plan component
    of a serving-layer cache key. *)

val query :
  ?pool:Mde_par.Pool.t ->
  t ->
  plan ->
  (Table.row * float array array) list
(** Run a plan in one fused pass: no intermediate bundle is
    materialized and presence is not rewritten — each cell is tested,
    derived and accumulated in a single sweep. Result is exactly
    [aggregate ~keys (select |> extend)] on the same bundle (asserted in
    tests, bit for bit), and it raises what that composition raises,
    before any cell is read. Group keys naming derived columns take
    that compose path. *)

val to_instances : t -> Table.t array
(** Materialize each repetition as an ordinary table (presence applied) —
    the bridge to the naive path for testing and for downstream operators
    the bundle engine does not cover. Realization [r] is bit-identical
    to element [r] of {!Stochastic_table.instantiate_many} for a bundle
    built with the same seed. *)
