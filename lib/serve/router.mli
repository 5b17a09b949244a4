(** Consistent rendezvous (highest-random-weight) routing of canonical
    query fingerprints across serving shards.

    Every (key, shard) pair gets a deterministic 64-bit weight from a
    seeded mix of the key's hash and the shard index; a key routes to
    the shard with the greatest weight. Unlike modulo hashing, this is
    {e minimally disruptive}: growing a front from [n] to [n + 1] shards
    remaps exactly the keys whose new shard's weight beats every old
    one — in expectation K/(n+1) of K keys — and shrinking it remaps
    only the keys that lived on the removed shard. Cache affinity
    therefore survives resizes: ≈(1 − 1/n) of the warmed fingerprints
    keep their shard, where modulo hashing would scatter nearly all of
    them.

    The hash is a self-contained FNV-1a/splitmix64 mix — independent of
    [Hashtbl.hash] and of the process — so a fingerprint routes to the
    same shard in every run, every process, and every test. *)

type t

val create : shards:int -> t
(** A router over shard indices [0 .. shards - 1]. Raises
    [Invalid_argument] if [shards < 1] — an empty front cannot route. *)

val shards : t -> int

val route : t -> string -> int
(** The shard a key lives on. Deterministic: equal keys always route
    equally, on every router of the same size. *)

val resize : t -> shards:int -> t
(** A router over the new shard count; shares nothing with [t] but the
    weight function, so keys whose argmax shard survives the resize keep
    routing to it. Raises [Invalid_argument] if [shards < 1]. *)

val weight : key:string -> shard:int -> int64
(** The rendezvous weight the argmax runs over — exposed so property
    tests can verify [route] against a reference argmax. Compared
    unsigned. *)
