(** The standard serving demo: one server wired with the headline models
    (the paper's SBP_DATA Monte Carlo database, a random-walk SimSQL
    chain, a two-stage demand→service composite) plus a catalog builder
    and the cold/warm benchmark pass — shared by the bench harness, the
    benchmark workloads and the tests so they all measure the same
    thing. *)

val server :
  ?pool:Mde_par.Pool.t ->
  ?clock:(unit -> float) ->
  ?cache_capacity:int ->
  ?cache_ttl:float ->
  ?scheduler:Scheduler.config ->
  ?admission:Server.admission ->
  ?rows:int ->
  unit ->
  Server.t
(** A fresh server with models ["sbp"] (MCDB over a [rows]-row patient
    table, default 120), ["sbp_bundle"] (the same database served through
    the columnar tuple-bundle engine via {!sbp_plan} — bit-identical
    answers, one VG sweep instead of one realization per repetition),
    ["walk"] (SimSQL chain) and ["queue"] (two-stage composite)
    registered. *)

val front :
  ?pool:Mde_par.Pool.t ->
  ?clock:(unit -> float) ->
  ?cache_capacity:int ->
  ?cache_ttl:float ->
  ?scheduler:Scheduler.config ->
  ?admission:Server.admission ->
  ?high_water:int ->
  ?rows:int ->
  shards:int ->
  unit ->
  Shard.t
(** The sharded twin of {!server}: a {!Shard} front with the same four
    models registered on every shard, plus the federated name
    ["sbp_any"] ({!Shard.federate} over ["sbp_bundle"] then ["sbp"]) —
    so the same demo catalog drives either target, and the federation
    path is exercised by requests addressed to ["sbp_any"]. *)

val mean_sbp : Mde_relational.Catalog.t -> float
(** The query behind ["sbp"]: global Avg(sbp) over the realized SBP_DATA
    instance, executed on the unified columnar substrate
    ({!Mde_relational.Columnar.group_by}). Bit-identical to the
    hand-rolled row fold (sum in row order, one division), which
    [test_serve] keeps as its oracle. *)

val sbp_plan : Mde_mcdb.Bundle.plan
(** Per-repetition Avg(sbp) over SBP_DATA — the bundle plan behind
    ["sbp_bundle"], accumulating rows in the same order as the naive
    query so the two models' samples match bit for bit. *)

val catalog : ?deadline:float -> int -> Server.request array
(** [catalog size] builds [size] distinct request templates cycling over
    the query kinds (including the columnar ["sbp_bundle"] path),
    each with its own seed (so fingerprints are pairwise distinct). Index
    order is the popularity rank order a Zipf workload samples from. *)

val cold_warm :
  ?clock:(unit -> float) ->
  Target.t ->
  catalog:Server.request array ->
  Workload.config ->
  Workload.report * Workload.report * [ `Identical of int | `Mismatch of int ]
(** Run the identical workload twice against one target — first cold,
    then with whatever the first pass cached — and compare the two
    passes' responses bit-for-bit over every request index served in
    both passes without deadline degradation. [`Identical n] means all
    [n] compared pairs matched exactly (value and CI). *)
