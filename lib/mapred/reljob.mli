(** Relational operators on the MapReduce engine — SimSQL's execution
    story (§2.1: "SimSQL compiles queries over stochastic tables into
    Hadoop jobs") made concrete over {!Job}.

    Tables enter as datasets of [?partitions] (default 4) contiguous
    row ranges and run through the same shuffle/group/sort machinery as
    every other job, with two guarantees the generic defaults cannot give:

    - each row's key shuffles as one packed {!Keycode} word, injective
      under [Value.Key] equality, so NaN group keys form one group and
      Int/Float keys match numerically, exactly as the columnar and row
      engines behave;
    - grouping shuffles row indices: the job's output lists each group's
      rows contiguously and in original row order, and one
      {!Columnar.group_by} aggregates the table in that order, so
      per-group aggregate values are bit-identical to
      {!Algebra.group_by}, pooled or not. *)

open Mde_relational

val group_by :
  ?pool:Mde_par.Pool.t ->
  ?partitions:int ->
  keys:string list ->
  aggs:(string * Aggregate.t) list ->
  Table.t ->
  Table.t * Job.stats
(** Distributed {!Algebra.group_by}. Per-group values are bit-identical
    to the row oracle; group {e row order} is the job's deterministic
    (reduce-bucket, then first-seen) order rather than global first-seen
    — compare as multisets. [keys = []] yields the single global row
    even on empty input. *)

val sort_by :
  ?pool:Mde_par.Pool.t ->
  ?partitions:int ->
  ?descending:bool ->
  string list ->
  Table.t ->
  Table.t * Job.stats
(** Distributed stable sort on the named columns under [Value.compare];
    output rows equal {!Algebra.order_by}'s exactly (the sample sort is
    stable and ranges are contiguous), pooled or not. *)
