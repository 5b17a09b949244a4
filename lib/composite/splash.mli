(** Splash-lite (§2.2, [26, 28, 53]): loose coupling of component models
    via data exchange. Contributors register models with metadata naming
    the datasets they read and write; composition wires producers to
    consumers through explicit data transformations (schema mappings,
    time alignment); execution runs the models in dependency order,
    applying every transformation at each Monte Carlo repetition. *)

open Mde_relational

(** A named piece of exchanged data. *)
type datum =
  | Number of float
  | Timeseries of Mde_timeseries.Series.t
  | Relation of Table.t

val datum_kind : datum -> string

type model = {
  name : string;
  description : string;
  inputs : string list;  (** dataset names consumed, in positional order *)
  outputs : string list;  (** dataset names produced, in positional order *)
  run : Mde_prob.Rng.t -> datum list -> datum list;
}

(** A data transformation on a dataset edge, applied after its producer
    runs and before any consumer sees it. *)
type transform = {
  dataset : string;
  transform_name : string;
  apply : datum -> datum;
}

val time_align_transform :
  dataset:string -> target_times:float array -> transform
(** Splash's automatic time aligner on a [Timeseries] dataset. *)

val schema_map_transform :
  dataset:string -> Mde_timeseries.Schema_map.t -> transform
(** A compiled Clio-style mapping on a [Relation] dataset. *)

val resample_transform : dataset:string -> step:float -> transform
(** Re-tick a [Timeseries] dataset onto a regular grid with the given
    step, spanning the series' own time range — the transform a platform
    inserts automatically when producer and consumer declare different
    time steps (see {!Mde.Registry.compose} in the core library).
    Raises [Invalid_argument] unless [step > 0]. *)

type composite

val compose :
  name:string -> models:model list -> transforms:transform list -> composite
(** Validates the wiring: every dataset is produced by at most one model,
    every transform targets a produced dataset, and the producer/consumer
    graph is acyclic. Raises [Invalid_argument] with a diagnostic — the
    "automatic detection of data mismatches" step. *)

val execution_order : composite -> string list
(** Topological model order. *)

val execute :
  composite -> Mde_prob.Rng.t -> inputs:(string * datum) list -> (string * datum) list
(** One end-to-end run: seed the externally supplied datasets, run each
    model in order (after transforming its inputs), return all datasets.
    Raises [Invalid_argument] if a model input is neither supplied nor
    produced. *)

val execute_timed :
  composite ->
  Mde_prob.Rng.t ->
  inputs:(string * datum) list ->
  (string * datum) list * (string * float) list
(** Like {!execute}, additionally returning each model's wall-clock cost
    in seconds — the observations §2.3 wants folded back into the model
    metadata ("as the component models are used in production runs, their
    behavior can be observed and used to continually refine the
    statistics"); see [Mde.Registry.record_run]. *)

val monte_carlo :
  composite ->
  Mde_prob.Rng.t ->
  inputs:(string * datum) list ->
  reps:int ->
  query:((string * datum) list -> float) ->
  float array
(** Independent repetitions on split RNG streams, reduced by [query].
    Raises [Invalid_argument] if [reps < 1]. *)
