(** Packed key codes: unboxed composite hash and sort keys read directly
    from columnar storage.

    Every keyed operator used to realize one boxed [Value.t list] per
    row ([Array.to_list] + a {!Value.Tbl} probe) just to ask "same key?"
    This module encodes a composite key into an unboxed form instead —
    one immediate [int] word per row when the key fits (ranged ints,
    bools, dictionary string codes, a null sentinel), a packed [Bytes.t]
    otherwise (float bit images, wide ints) — with the encoding exactly
    {e injective} with respect to {!Value.Key} equality:

    - [Int i] and [Float f] are one key when numerically equal under
      [Float.compare], so mixed numeric components encode both through
      the same canonical float image (ints are validated to have an
      exact image, else the encoder refuses);
    - every NaN payload is one key ([Float.compare nan nan = 0]): all
      NaNs collapse to one image;
    - [-0.0] and [0.0] are one key ([Float.compare (-0.) 0. = 0]): both
      collapse to the [+0.0] image;
    - [Null] is a key distinct from every value (its own sentinel code);
    - string dictionary codes are {e per column}, so multi-column
      encodings (join sides) translate through a shared dictionary
      rather than comparing raw codes.

    Anything the encoder cannot represent injectively — boxed [Vvalues]
    storage, uncertain (non-det) columns, int magnitudes whose float
    image is inexact next to float-typed mates — makes {!of_columns}
    return [None] and the caller takes its boxed [Value.Tbl] path. *)

type t
(** An encoder over one or more aligned sets of key columns ("sides"):
    group/distinct pass one side, a join passes the build and probe
    sides so component encodings (int offsets, shared string
    dictionaries) agree across both. *)

val of_columns : Column.t array list -> t option
(** [of_columns sides] analyses the key columns (all sides must list the
    same number of components; component [c] pairs [sides.(s).(c)]
    across sides). Involves one unboxed scan per int component (value
    range, float-image exactness) and a dictionary merge per string
    component. [None] when any component cannot be encoded injectively,
    and for an empty component list (key-less operators have their own
    degenerate paths). *)

type keys =
  | Kint of int array  (** one immediate word per row *)
  | Kbytes of bytes array  (** packed tagged bytes per row *)

type coded = {
  keys : keys;
  null_rows : bool array option;
      (** [Some flags]: [flags.(i)] iff any component of row [i] is
          Null — the rows a join must skip. [None] = no nulls anywhere
          in the side's key columns. *)
}

val encode : ?pool:Mde_par.Pool.t -> t -> side:int -> coded
(** Encode every row of one side. Row-chunked over the pool when given;
    each row's slots are disjoint, so the pooled fill is bit-identical
    to the sequential one. A single no-null int component is returned
    zero-copy (the column's own storage). *)

(** {2 Key tables}

    First-seen id assignment over encoded keys: the hash side of
    group/join/distinct without any boxing. Int keys go through an
    open-addressing table (linear probing, multiplicative hashing);
    bytes keys through a [Hashtbl] keyed by [Bytes]. *)

type tbl

val tbl_create : hint:int -> keys -> tbl
(** A table that will be fed rows of [keys] (the build side). *)

val tbl_add : tbl -> int -> int
(** [tbl_add t i]: the id of build row [i]'s key, inserting it if new.
    Ids are dense and in first-seen order: a fresh key gets id
    [tbl_count t] (pre-insertion). *)

val tbl_find : tbl -> keys -> int -> int
(** [tbl_find t probe i]: the id of probe row [i]'s key, or [-1] if the
    key was never added. [probe] must come from the same encoder (a
    different side is the point). *)

val tbl_count : tbl -> int
(** Number of distinct keys added so far. *)

val int_hash : int -> int
(** The table's non-negative int mix, exposed for callers that route by
    packed code (MapReduce shuffle partitioning). *)

(** {2 Normalized sort keys} *)

val sort_perm : ?descending:bool -> Column.t array -> n_rows:int -> int array option
(** The stable multi-key sort permutation via one extracted normalized
    key per row instead of a per-column comparator chain: each
    component maps order-preservingly onto a packed integer (Null
    lowest, ints offset, bools 0/1, strings by dictionary {e rank}),
    the row index rides in the low bits as the tiebreak, and one flat
    [int array] sort replaces the closure chain. [descending] reverses
    the key order, never the tiebreak, exactly like
    {!Algebra.order_by}. [None] when a component does not normalize
    (floats, boxed storage) or the packed image would not fit — the
    caller keeps its comparator path. *)
