(** Partitioned in-memory datasets — the data model of the MapReduce
    substrate that stands in for Hadoop (see DESIGN.md substitutions).

    A dataset is an ordered list of partitions; operations that respect
    partition boundaries model work that a cluster can do without
    communication, while {!Job} operations that cross boundaries are
    charged to the shuffle. *)

type 'a t

val of_array : ?partitions:int -> 'a array -> 'a t
(** Split an array into [partitions] (default 4) contiguous chunks. *)

val of_partitions : 'a array array -> 'a t
val to_array : 'a t -> 'a array
(** Concatenation of all partitions in order. *)

val partitions : 'a t -> 'a array array
val partition_count : 'a t -> int
val total_length : 'a t -> int
val map : ('a -> 'b) -> 'a t -> 'b t
(** Element-wise, partition-preserving (no shuffle). *)

val mapi : (int -> 'a -> 'b) -> 'a t -> 'b t
(** Like {!map} with the global element index. *)

val filter : ('a -> bool) -> 'a t -> 'a t
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Sequential fold over all elements in partition order. *)

val iter : ('a -> unit) -> 'a t -> unit
