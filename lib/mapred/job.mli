(** MapReduce jobs over {!Dataset} values, with explicit accounting of
    shuffle traffic.

    The paper's §2.2 argument — that DSGD beats direct linear solvers on
    MapReduce because "the amount of data that needs to be shuffled is
    negligible" — is made measurable here: every job reports how many
    records crossed partition boundaries. *)

type stats = {
  records_mapped : int;  (** inputs consumed by the map phase *)
  records_shuffled : int;
      (** key/value pairs that moved to a different partition than the one
          that produced them *)
  records_reduced : int;  (** key groups consumed by the reduce phase *)
  partitions : int;
}

val pp_stats : Format.formatter -> stats -> unit

val map_reduce :
  ?pool:Mde_par.Pool.t ->
  ?reduce_partitions:int ->
  ?hash:('k -> int) ->
  ?equal:('k -> 'k -> bool) ->
  ?combine:('k -> 'v list -> 'v list) ->
  map:('a -> ('k * 'v) list) ->
  reduce:('k -> 'v list -> 'c list) ->
  'a Dataset.t ->
  'c Dataset.t * stats
(** Classic job: map every record to key/value pairs, optionally combine
    per input partition (reducing shuffle volume, as a Hadoop combiner
    does), hash-partition by key into [reduce_partitions] (default: same
    as input; must be positive or [Invalid_argument] is raised), group
    values per key preserving emission order, reduce. Within each reduce
    partition, key groups are processed in a deterministic (hash-bucket,
    then first-seen) order. [?hash]/[?equal] override the key equivalence
    used by the shuffle and the grouping (defaults: [Hashtbl.hash] and
    structural [=]); {!Reljob} passes packed key codes.

    A record is charged to the shuffle only when it lands in a reduce
    partition different from the input partition that emitted it —
    cross-partition traffic — whatever the reduce-side partition count.

    With [?pool], the map phase runs each input partition on its own
    domain and the reduce phase each output partition likewise ([map],
    [combine] and [reduce] must then be pure, or at least free of shared
    mutable state); the shuffle stays sequential, so output and stats
    are bit-identical to the sequential run. *)

val equi_join :
  ?pool:Mde_par.Pool.t ->
  ?partitions:int ->
  ?hash:('k -> int) ->
  ?equal:('k -> 'k -> bool) ->
  left_key:('a -> 'k) ->
  right_key:('b -> 'k) ->
  'a Dataset.t ->
  'b Dataset.t ->
  ('a * 'b) Dataset.t * stats
(** The classic reduce-side join (how SimSQL executes joins on Hadoop):
    both inputs are tagged, shuffled on their key, and each reducer emits
    the per-key cross product. *)

val sort_by :
  ?pool:Mde_par.Pool.t ->
  cmp:('a -> 'a -> int) ->
  'a Dataset.t ->
  'a Dataset.t * stats
(** Parallel sample sort: sample partition boundaries, route each record
    to its range partition (counted as shuffle), sort partitions locally
    (one range per domain under [?pool]). The concatenated output is
    globally sorted, and the sort is {e stable}: records comparing equal
    keep their input order, matching [Algebra.order_by]'s row oracle
    with or without a pool. *)

val reset_global_counter : unit -> unit
val global_records_shuffled : unit -> int
(** Cumulative shuffle volume across all jobs since the last reset; used
    by benchmarks that run multi-job pipelines. *)
