(** Packed key codes: unboxed composite hash and sort keys read directly
    from columnar storage.

    Every keyed operator used to realize one boxed [Value.t list] per
    row ([Array.to_list] + a {!Value.Tbl} probe) just to ask "same key?"
    This module encodes any composite key over deterministic columns into
    one immediate [int] word per row instead, with the encoding exactly
    {e injective} with respect to {!Value.Key} equality:

    - ranged ints, bools and strings have narrow native codes: an offset
      from the scanned minimum, 0/1, and a string dictionary shared
      across sides (dictionary codes are {e per column}, so join sides
      translate through it rather than comparing raw codes); a sole
      no-null int column is its own key, zero-copy;
    - every other component — floats, ints beside floats or spanning
      more than 2^61, different kinds on different sides — is coded by
      one dictionary shared across sides
      under [Value.Key] equality, so [Int i] meets [Float f] exactly
      when [f] is integral with value [i], every NaN payload is one
      key, and [-0.0] is [0.0];
    - [Null] is a key distinct from every value (the code 0 in its
      field);
    - a composite whose fields pass one word replaces its packed prefix
      by a dense id (an int-keyed dictionary shared across sides)
      whenever the next field would not fit;
    - the empty key is one constant code.

    Dictionaries are filled sequentially in {!of_columns}, sides in
    order and rows in order, so every code is a pure function of the
    encoder and the row: pooled and sequential encodings agree. *)

type t
(** An encoder over one or more aligned sets of key columns ("sides"):
    group/distinct pass one side, a join passes the build and probe
    sides so component encodings (int offsets, shared dictionaries)
    agree across both. *)

val of_columns : Column.t array list -> t option
(** [of_columns sides] analyses the key columns (all sides must list the
    same number of components; component [c] pairs [sides.(s).(c)]
    across sides). Involves one unboxed scan per int component and a
    dictionary merge per string component; dictionary-coded components
    and composites wider than a word are coded here, once. [None] only
    for no sides, sides of different arity, or an uncertain (non-det)
    column. *)

type coded = {
  keys : int array;  (** one immediate word per row *)
  null_rows : bool array option;
      (** [Some flags]: [flags.(i)] iff any component of row [i] is
          Null — the rows a join must skip. [None] = no nulls anywhere
          in the side's key columns. *)
}

val codes : ?pool:Mde_par.Pool.t -> t -> side:int -> rows:int -> coded
(** Encode every row of one side; [rows] is the side's row count, which
    the empty key has no column to take from (it codes every row 0).
    Each component packs in one typed loop over the side's rows, read
    through a view's index ({!Column.source}), so no view is forced
    (dictionary-coded components were coded, and forced, by
    {!of_columns}); a row is Null when one of its fields reads 0. The
    fill is row-chunked over the pool when given; chunks own disjoint
    rows, so the pooled fill is bit-identical to the sequential one. A
    single no-null int component of a one-sided encoder is returned
    zero-copy (the column's own storage) when the column is built; an
    unread view's keys are read through its index into a fresh array.
    An encoder over two or more sides never returns column storage:
    its keys are a fresh array, or (a composite wider than a word) the
    encoder's own, which no other encoder shares. A join that encodes
    each side once may therefore overwrite them. *)

val encode : ?pool:Mde_par.Pool.t -> t -> side:int -> coded
(** {!codes} with the row count of the side's key columns. Raises
    [Invalid_argument] on the empty key. *)

val groups : ?pool:Mde_par.Pool.t -> Column.t array -> rows:int -> int array * int array
(** [groups cols ~rows]: each row's dense first-seen group id under
    [Value.Key] equality of its key cells, and each group's first row
    (increasing). The empty key is one group when [rows > 0]. Raises
    [Invalid_argument] on an uncertain column. *)

(** {2 Key tables}

    First-seen id assignment over encoded keys: the build side of
    group/join/distinct without any boxing. A table takes one of two
    representations, chosen at creation from its build keys alone:

    - {e direct}: when the build keys' span ([max - min + 1]) takes no
      more words than the hashed table's two arrays would at creation
      (twice its starting slot count), one [int array] of ids indexed
      by [key - min]; adding is one load and at most one store, a
      lookup a range check and one load. A direct table is therefore
      never larger than the hashed one it replaces;
    - {e hashed}: otherwise (a wide span, a span whose [max - min]
      overflows, no build keys), an open-addressing table (linear
      probing, multiplicative hashing) that doubles at 3/4 load.

    Ids are the same in both: dense and first-seen, so an operator's
    output does not depend on the representation. *)

type tbl

val tbl_create : hint:int -> int array -> tbl
(** [tbl_create ~hint keys]: a table that will be fed rows of [keys]
    (the build side), [hint] distinct keys expected. One pass over
    [keys] picks the representation. *)

val tbl_count : tbl -> int
(** Number of distinct keys added so far. *)

val tbl_add_rows : tbl -> skip:bool array option -> int array -> unit
(** [tbl_add_rows t ~skip ids]: for every build row [i] in order,
    [ids.(i)] is the id of its key, inserted if new; a row with
    [skip.(i)] is not added and gets [-1]. Ids are dense and in
    first-seen order: a fresh key gets the count of keys added before
    it. [ids] may be the build keys themselves: each row's key is read
    before its id is written. *)

val tbl_find_rows : tbl -> skip:bool array option -> int array -> int -> int -> unit
(** [tbl_find_rows t ~skip keys lo hi]: each [keys.(i)], [lo <= i < hi],
    is replaced by its key's id, or [-1] when the key was never added
    or [skip.(i)]. [keys] must come from the table's encoder (a
    different side is the point). Rows of disjoint ranges may be looked
    up from different domains. *)

val int_hash : int -> int
(** The table's non-negative int mix, exposed for callers that route by
    packed code (MapReduce shuffle partitioning). *)

(** {2 Normalized sort keys} *)

val sort_perm : ?descending:bool -> Column.t array -> n_rows:int -> int array
(** The stable multi-key sort permutation under [Value.compare], via
    extracted normalized keys instead of a per-column comparator chain.
    Each column maps order-preservingly onto fields of at most 62 bits,
    Null lowest: ints offset (or split halves when they span more than
    2^61), bools 0/1, strings by dictionary {e rank}, floats as NaN
    below every number and then their sign-flipped bits with [-0.]
    read as [0.]. When the fields and the row
    index fit one word, one flat [int array] sort does it all;
    otherwise rows compare word by word, then by index. [descending]
    reverses the key order, never the tiebreak, exactly like
    {!Algebra.order_by}. Raises [Invalid_argument] on an uncertain
    column. *)
