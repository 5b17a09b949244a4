(** The Monte Carlo database proper: ordinary relations plus any number
    of stochastic-table definitions. Queries are ordinary functions over
    a realized {!Mde_relational.Catalog} — "running an SQL query over the
    database instance generates a sample from the query-result
    distribution. Iteration of this process yields a collection of
    samples" (§2.1). This is the fully general execution path; the
    tuple-bundle engine ({!Bundle}) is its one-pass optimization for
    row-stable VG functions. *)

open Mde_relational

type t

val create : unit -> t

val add_table : t -> string -> Table.t -> unit
(** Register an ordinary (deterministic) relation. *)

val add_stochastic : t -> Stochastic_table.t -> unit
(** Register a stochastic table (keyed by its name). Definitions may
    consult the deterministic relations through the closures they were
    built with. *)

val deterministic_tables : t -> string list
val stochastic_tables : t -> string list

val fingerprint : t -> string
(** Canonical description of the database contents (deterministic
    relations with schema and cardinality, stochastic definitions via
    {!Stochastic_table.fingerprint}), in sorted name order — the
    database component of a serving-layer cache key. *)

val instantiate : t -> Mde_prob.Rng.t -> Catalog.t
(** One database instance: every deterministic relation plus one
    realization of every stochastic table, as a catalog ready for
    querying. *)

val monte_carlo :
  ?pool:Mde_par.Pool.t ->
  t ->
  Mde_prob.Rng.t ->
  reps:int ->
  query:(Catalog.t -> float) ->
  float array
(** The MCDB loop: realize, query, repeat — one sample of the
    query-result distribution per repetition, each on a split RNG
    stream. With [?pool] the repetitions run in parallel over the
    domain pool; because every repetition owns its pre-split stream, the
    samples are bit-identical to the sequential run. Raises
    [Invalid_argument] if [reps < 1].

    When a live {!Mde_obs.default} registry is installed, the call runs
    under an [mcdb.estimate] span and records replications executed
    ([mde_mcdb_replications_total]) and sampling wall time
    ([mde_mcdb_estimate_seconds]) — for every caller, so served means,
    served tails and progressive-session batches all count. The
    instrumentation never touches the RNG, so samples are bit-identical
    either way; with the no-op default it costs one branch. *)

val plan_samples :
  ?pool:Mde_par.Pool.t ->
  t ->
  Mde_prob.Rng.t ->
  table:string ->
  reps:int ->
  Bundle.plan ->
  float array
(** The tuple-bundle counterpart of {!monte_carlo} for plans over one
    stochastic table: build a columnar {!Bundle} (one VG sweep for all
    repetitions) and run the plan in a single fused pass, returning the
    per-repetition samples of the plan's first aggregate. Bit-identical
    to realizing instance [r] and running the plan on it, for every [r]
    (the property the bundle tests assert). The plan must aggregate into
    a single global group ([group_keys = []]) and name at least one
    aggregate; the table's VG function must be row-stable. Raises
    [Invalid_argument] otherwise, or for an unknown [table], or
    [reps < 1]. *)

val estimate :
  ?pool:Mde_par.Pool.t ->
  t ->
  Mde_prob.Rng.t ->
  reps:int ->
  query:(Catalog.t -> float) ->
  Estimator.estimate
(** Convenience: [Estimator.of_samples (monte_carlo ...)], a mean
    estimate with CI (instrumented through {!monte_carlo}). *)
