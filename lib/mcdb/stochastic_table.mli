(** Stochastic-table definitions, mirroring MCDB's

    {v
    CREATE TABLE SBP_DATA(PID, GENDER, SBP) AS
      FOR EACH p IN PATIENTS
      WITH SBP AS Normal((SELECT s.MEAN, s.STD FROM SBP_PARAM s))
      SELECT p.PID, p.GENDER, b.VALUE FROM SBP b
    v}

    A definition names a driver table ([FOR EACH]), a VG function
    ([WITH ... AS]), a per-driver-row parametrization (the inner SELECT),
    and a combiner (the outer SELECT) that builds each output row from the
    driver row and one VG output row. *)

open Mde_relational

type t

val define :
  name:string ->
  schema:Schema.t ->
  driver:Table.t ->
  vg:Vg.t ->
  params:(Table.row -> Table.t list) ->
  combine:(Table.row -> Table.row -> Table.row) ->
  t
(** [combine driver_row vg_row] must produce a row matching [schema]. *)

val name : t -> string
val schema : t -> Schema.t
val vg : t -> Vg.t
val driver : t -> Table.t

val fingerprint : t -> string
(** Canonical one-line description of the definition (name, VG function,
    output schema, driver cardinality) — stable across runs, so a serving
    layer can use it as a cache-key component. The per-row [params] and
    [combine] closures are not observable and are assumed to be determined
    by the rest of the definition. *)

val generate_for_row : t -> Mde_prob.Rng.t -> Table.row -> Table.row list
(** Run the VG function for a single driver row and combine: the row
    construction {!instantiate} performs, as boxed rows (the reference
    tests compare realizations against). *)

val realize :
  one_row:bool ->
  t ->
  Mde_prob.Rng.t array ->
  int * Column.t array
(** The one realization routine behind {!instantiate} (one stream) and
    [Bundle.of_stochastic_table] (a run of repetitions' streams): the
    number of output rows and the output's columns in schema order, of
    one repetition per stream. Driver rows are visited in order; each
    calls [params] once (it takes no RNG, so one evaluation serves every
    stream), then, for each stream [r] in turn, the VG function once on [streams.(r)] and
    [combine] on each VG row, so every stream is consumed exactly as
    {!generate_for_row} row after row would consume it alone: the
    repetitions advance in lock-step, and repetition [r] is the instance
    stream [r] alone gives.

    Combined cells go straight into typed storage, row by row with a
    row's repetitions side by side: a deterministic column for one
    stream, rows × reps storage for several (not compressed: see
    {!Column.of_realizations}). An output column whose every cell, in
    every repetition, is physically ([==]) the same driver cell of its
    row, with the same declared type, is not copied: it is the driver's
    cached column ([Table.columns]), or a [Column.gather] view of it
    when the VG did not emit exactly one row per driver row, with one
    repetition per stream. Every [combine] that passes driver cells
    through takes this path; one that stops passing them mid-run gets
    typed storage, backfilled with the cells passed so far.

    With [~one_row:true], a driver row whose VG emits other than one row
    raises [Invalid_argument]; several streams need [~one_row:true], and
    no stream raises [Invalid_argument]. A combined row of the wrong
    arity, or a non-null cell whose type is not its column's, raises the
    [Invalid_argument] [Table.of_rows] raises on that row, as soon as
    the row is combined: when several rows are bad, the one reported is
    the first combined, and an error the VG function or [combine] would
    raise on a later row is not reached. *)

val instantiate : t -> Mde_prob.Rng.t -> Table.t
(** Draw one realization of the whole table: {!realize}, wrapped as a
    column-backed table ([Table.of_columns]). Its boxed rows are built
    only if a consumer reads them; a pass-through column is the
    driver's own column. Cells are bit-identical to [Table.create] over
    the concatenated {!generate_for_row} outputs, and errors are those
    of {!realize}. *)

val instantiate_many :
  ?pool:Mde_par.Pool.t -> t -> Mde_prob.Rng.t -> int -> Table.t array
(** n independent realizations (the naive Monte Carlo path: the query
    must then be run once per instance), each drawn on its own split
    stream; with [?pool] the realizations are drawn in parallel with
    bit-identical output. *)
