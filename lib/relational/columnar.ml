(* The columnar relational table: the deterministic reps=1 specialization
   of the tuple-bundle storage ([Column]/[Bitset]) carrying the [Algebra]
   operators. Predicates, computed columns and aggregate sources are
   typed when bound and run as [Kernel] block programs. Every operator
   reproduces its [Algebra] twin bit for bit: same row order, same
   float accumulation order, and the same errors, raised before any row
   is read. *)

type t = { tschema : Schema.t; n_rows : int; cols : Column.t array }

let schema t = t.tschema
let row_count t = t.n_rows

(* Invariant: every column is deterministic (one slot per row, reps=1),
   so slot s = row i everywhere below. *)

let of_table table =
  {
    tschema = Table.schema table;
    n_rows = Table.cardinality table;
    cols = Table.columns table;
  }

let to_table t = Table.of_columns t.tschema ~rows:t.n_rows t.cols
let env t = Kernel.env_of_columns t.tschema t.cols

(* Every output column is a view over its input ([Column.gather]):
   nothing is copied until something reads the column. *)
let gather t idx =
  { tschema = t.tschema; n_rows = Array.length idx; cols = Column.gather t.cols idx }

(* The columns an operator's output index addresses, and the index it
   composes row [i] with: the bases of a side whose columns all view
   through one shared index, so the output views need no composing
   pass; otherwise the columns themselves, whose [Column.gather]
   composes per source as needed. *)
let based cols =
  match Column.bases cols with Some (bases, ix) -> (bases, Some ix) | None -> (cols, None)

(* Each block's survivors are kept as their positions in the block, one
   byte each (a block has at most [Kernel.block] = 256 positions), with
   the block's first row; the output index then takes exactly their
   number, as row indices or, through a shared view index, base rows.
   It is the only allocation as long as the output. *)
let select ?pool pred t =
  let node = Kernel.compile_as (env t) Value.Tbool pred in
  let cols, ix = based t.cols in
  let kept_blocks = ref [] and count = ref 0 in
  Kernel.sweep ?pool ~site:"columnar.select" ~rows:t.n_rows ~reps:1 (fun f ->
      let kept, keep = Kernel.filter node f in
      ( (fun () -> keep f.all),
        fun () ->
          let n = kept.n in
          if n > 0 then begin
            let positions = Bytes.create n in
            for j = 0 to n - 1 do
              Bytes.unsafe_set positions j (Char.chr (Array.unsafe_get kept.pos j))
            done;
            kept_blocks := (f.lo, positions) :: !kept_blocks;
            count := !count + n
          end ));
  let idx = Array.make !count 0 and hi = ref !count in
  List.iter
    (fun (lo, positions) ->
      let n = Bytes.length positions in
      hi := !hi - n;
      let at = !hi in
      match ix with
      | None ->
        for j = 0 to n - 1 do
          Array.unsafe_set idx (at + j) (lo + Char.code (Bytes.unsafe_get positions j))
        done
      | Some ix ->
        for j = 0 to n - 1 do
          Array.unsafe_set idx (at + j) ix.(lo + Char.code (Bytes.unsafe_get positions j))
        done)
    !kept_blocks;
  { tschema = t.tschema; n_rows = !count; cols = Column.gather cols idx }

let project names t =
  let idxs = List.map (Schema.column_index t.tschema) names in
  {
    tschema = Schema.project t.tschema names;
    n_rows = t.n_rows;
    cols = Array.of_list (List.map (fun j -> t.cols.(j)) idxs);
  }

let extend ?pool defs t =
  let added = Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) defs) in
  (* Every defining expression reads the input schema, as the row oracle's
     extend does; all are typed before any is evaluated. *)
  let kenv = env t in
  let nodes = List.map (fun (_, ty, e) -> (ty, Kernel.compile_as kenv ty e)) defs in
  let build (ty, node) = Kernel.materialize ?pool ~ty ~rows:t.n_rows ~reps:1 node in
  {
    tschema = Schema.concat t.tschema added;
    n_rows = t.n_rows;
    cols = Array.append t.cols (Array.of_list (List.map build nodes));
  }

(* Probe rows per chunk of the join's lookups. *)
let probe_chunk = 4096

(* [join_index], with each side's pair entries written through that
   side's map ([None]: the row itself), so a side read through a view's
   shared index gets its output index already composed. *)
let join_pairs ?pool ~lmap ~rmap (left, left_rows) (right, right_rows) =
  let[@inline] via map r = match map with None -> r | Some m -> m.(r) in
  let enc =
    match Keycode.of_columns [ right; left ] with
    | Some enc -> enc
    | None -> invalid_arg "Columnar.join_index: uncertain key column"
  in
  (* One unboxed key per row. The table goes over the smaller side (the
     right on a tie), and the other side looks its rows up: the choice
     reads the input sizes only. *)
  let rcoded = Keycode.codes ?pool enc ~side:0 ~rows:right_rows in
  let lcoded = Keycode.codes ?pool enc ~side:1 ~rows:left_rows in
  let hash_left = right_rows > left_rows in
  let (hashed, h_rows), (probed, p_rows) =
    if hash_left then ((lcoded, left_rows), (rcoded, right_rows))
    else ((rcoded, right_rows), (lcoded, left_rows))
  in
  (* Key ids of the hashed rows (-1: a Null component), and each id's
     rows as a chain in row order. *)
  let tbl = Keycode.tbl_create ~hint:h_rows hashed.keys in
  let h_id = Array.make h_rows (-1) in
  Keycode.tbl_add_rows tbl ~skip:hashed.null_rows h_id;
  let ids = Keycode.tbl_count tbl in
  (* Per-id arrays are indexed by [id + 1], so that a row without a key
     id (-1) reads slot 0, an empty chain and no matches, with no
     branch. *)
  let head = Array.make (ids + 1) (-1) and next = Array.make h_rows (-1) in
  for h = h_rows - 1 downto 0 do
    let id = h_id.(h) in
    if id >= 0 then begin
      next.(h) <- head.(id + 1);
      head.(id + 1) <- h
    end
  done;
  (* The lookups run in row chunks, on the pool when given; each chunk
     writes only its own rows' ids. The ids overwrite the probe side's
     codes, row by row after reading them: a two-sided encoder never
     returns column storage, so the codes are this call's own. *)
  let p_id = probed.keys in
  let chunks = (p_rows + probe_chunk - 1) / probe_chunk in
  Mde_par.Pool.iter ?pool ~site:"columnar.join.probe" chunks (fun b ->
      let lo = b * probe_chunk in
      Keycode.tbl_find_rows tbl ~skip:probed.null_rows p_id lo (min p_rows (lo + probe_chunk)));
  let l_id, r_id = if hash_left then (h_id, p_id) else (p_id, h_id) in
  let r_count = Array.make (ids + 1) 0 in
  for j = 0 to right_rows - 1 do
    let c = r_id.(j) + 1 in
    r_count.(c) <- r_count.(c) + 1
  done;
  r_count.(0) <- 0;
  (* One pass over the left rows: the number of pairs, whether every
     left row matches exactly once ([others] stays 0), and (left hashed)
     each left row's first pair. *)
  let off = Array.make (if hash_left then left_rows + 1 else 0) 0 in
  let total = ref 0 and others = ref 0 in
  for i = 0 to left_rows - 1 do
    let m = r_count.(l_id.(i) + 1) in
    others := !others lor (m lxor 1);
    total := !total + m;
    if hash_left then off.(i + 1) <- !total
  done;
  let once = !others = 0 in
  (* Pairs come out left row by left row, each left row's matches in
     right-row order — the row oracle's order — into arrays of exactly
     their number. *)
  if not hash_left then begin
    if once then begin
      (* Every left row has its one right row at the head of its chain:
         the left side passes through with no index, and the right
         index overwrites the left rows' key ids, which are this call's
         own (see the lookups). *)
      let ri = l_id in
      for i = 0 to left_rows - 1 do
        ri.(i) <- via rmap head.(l_id.(i) + 1)
      done;
      (None, ri)
    end
    else begin
      (* Left rows in order, each walking its right chain in row order:
         pairs are written as they come. The offset scatter below gives
         the same pairs, but its writes jump across a large left side;
         this sequential loop is the faster one end to end (DESIGN.md,
         "Join orientation"). *)
      let li = Array.make !total 0 and ri = Array.make !total 0 and k = ref 0 in
      for i = 0 to left_rows - 1 do
        let j = ref head.(l_id.(i) + 1) in
        let l = via lmap i in
        while !j >= 0 do
          li.(!k) <- l;
          ri.(!k) <- via rmap !j;
          incr k;
          j := next.(!j)
        done
      done;
      (Some li, ri)
    end
  end
  else begin
    (* Right rows in order, each walking its left chain: [off.(i)] starts
       at left row [i]'s first pair and advances as its pairs are
       written, so every left row receives its right rows in increasing
       order. The left side here is the smaller one, so its index is
       written even when it passes through. *)
    let li = Array.make !total 0 and ri = Array.make !total 0 in
    for j = 0 to right_rows - 1 do
      let i = ref head.(r_id.(j) + 1) in
      let r = via rmap j in
      while !i >= 0 do
        let k = off.(!i) in
        li.(k) <- via lmap !i;
        ri.(k) <- r;
        off.(!i) <- k + 1;
        i := next.(!i)
      done
    done;
    ((if once then None else Some li), ri)
  end

let join_index ?pool left right = join_pairs ?pool ~lmap:None ~rmap:None left right

let key_cols t names =
  Array.of_list (List.map (fun k -> t.cols.(Schema.column_index t.tschema k)) names)

let equi_join ?pool ~on l r =
  let tschema = Schema.concat l.tschema r.tschema in
  (* Left rows in order, each one's matches in right-row order — the
     exact row order of the row oracle's equi_join. Null keys never
     match. *)
  let l_based, lmap = based l.cols and r_based, rmap = based r.cols in
  let li, ri =
    join_pairs ?pool ~lmap ~rmap
      (key_cols l (List.map fst on), l.n_rows)
      (key_cols r (List.map snd on), r.n_rows)
  in
  (* A left side matched once per row keeps its columns as they are. *)
  let l_cols = match li with None -> l.cols | Some li -> Column.gather l_based li in
  { tschema; n_rows = Array.length ri; cols = Array.append l_cols (Column.gather r_based ri) }

(* --- grouped aggregation -------------------------------------------- *)

(* One [Aggregate.grouped] sweep at one slot per row; the output columns
   are built directly: keys by gathering each group's first row,
   aggregates from the finishers. *)
let group_by ?pool ~keys ~aggs t =
  let key_cols = key_cols t keys in
  let key_schema_cols = List.map (fun k -> (k, Schema.column_type t.tschema k)) keys in
  let out_schema =
    Schema.of_list (key_schema_cols @ List.map (fun (n, a) -> (n, Aggregate.output_type a)) aggs)
  in
  let kenv = env t in
  let res =
    Aggregate.grouped ~pool ~site:"columnar.group" ~presence:None ~where:None ~keys:key_cols
      ~rows:t.n_rows ~reps:1
      (Array.of_list (List.map (fun (_, a) -> Aggregate.compile kenv a) aggs))
  in
  let agg_out =
    Array.of_list
      (List.mapi
         (fun a (_, agg) ->
           Column.of_det_cells ~ty:(Aggregate.output_type agg) ~rows:res.n_groups ~reps:1
             (fun g -> res.value a g 0))
         aggs)
  in
  {
    tschema = out_schema;
    n_rows = res.n_groups;
    cols = Array.append (Column.gather key_cols res.firsts) agg_out;
  }

(* --- ordering, distinct, limit -------------------------------------- *)

let order_by ?(descending = false) names t =
  gather t (Keycode.sort_perm ~descending (key_cols t names) ~n_rows:t.n_rows)

(* A row is kept iff its key is fresh. Null cells are ordinary key codes
   here: Null = Null under Value.Key, exactly as in the row oracle. *)
let distinct ?pool t = gather t (snd (Keycode.groups ?pool t.cols ~rows:t.n_rows))

let limit n t =
  (* Not an assert: validation must survive [-noassert] builds. *)
  if n < 0 then invalid_arg "Columnar.limit: negative row count";
  gather t (Array.init (min n t.n_rows) Fun.id)
