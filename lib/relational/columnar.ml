(* The columnar relational table: the deterministic reps=1 specialization
   of the tuple-bundle storage ([Column]/[Bitset]) carrying the [Algebra]
   operators. Predicates and computed columns compile to typed closures
   via [Kernel]; anything the compiler does not cover evaluates with
   [Expr.eval]/[Expr.eval_bool] on a realized row. Every operator
   reproduces its [Algebra] twin bit for bit: same row order,
   same float accumulation order, same error behavior on well-formed
   inputs. *)

module Array1 = Bigarray.Array1

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

let row t i = Array.map (fun c -> Column.value c i 0) t.cols
let to_table t = Table.of_columns t.tschema ~rows:t.n_rows t.cols
let env t = Kernel.env_of_columns t.tschema ~reps:1 t.cols

(* Every output column is a view over its input ([Column.gather]):
   nothing is copied until something reads the column. *)
let gather t idx =
  { tschema = t.tschema; n_rows = Array.length idx; cols = Column.gather t.cols idx }

(* A growable unboxed int buffer: select's survivors, distinct's keepers. *)
type ibuf = { mutable ib : int array; mutable ilen : int }

let ibuf_create () = { ib = Array.make 64 0; ilen = 0 }

let ibuf_push b v =
  if b.ilen = Array.length b.ib then begin
    let bigger = Array.make (2 * b.ilen) 0 in
    Array.blit b.ib 0 bigger 0 b.ilen;
    b.ib <- bigger
  end;
  b.ib.(b.ilen) <- v;
  b.ilen <- b.ilen + 1

let ibuf_concat bufs =
  let out = Array.make (Array.fold_left (fun n b -> n + b.ilen) 0 bufs) 0 in
  let k = ref 0 in
  Array.iter
    (fun b ->
      Array.blit b.ib 0 out !k b.ilen;
      k := !k + b.ilen)
    bufs;
  out

(* Deterministic row chunks of [0, n): one without a pool, [domains × 8]
   contiguous ones run over it, each as [f c lo hi]. Whatever each chunk
   writes to its own slot, read back in chunk order, is the sequential
   output whatever the chunk count. *)
let n_chunks ?pool n =
  match pool with None -> 1 | Some p -> min (max 1 n) (Mde_par.Pool.domains p * 8)

let iter_chunks ?pool ~site ~chunks n f =
  let per = (n + chunks - 1) / chunks in
  let run c = f c (c * per) (min n ((c + 1) * per)) in
  match pool with
  | None -> run 0
  | Some p -> Mde_par.Pool.parallel_iter p ~site ~chunk:1 chunks run

let select ?pool pred t =
  let test =
    match Option.bind (Kernel.compile (env t) pred) Kernel.as_pred with
    | Some p -> fun i -> p i 0
    | None -> fun i -> Expr.eval_bool t.tschema (row t i) pred
  in
  (* One pass: each chunk pushes its survivors, in row order, into its
     own buffer. *)
  let chunks = n_chunks ?pool t.n_rows in
  let bufs = Array.init chunks (fun _ -> ibuf_create ()) in
  iter_chunks ?pool ~site:"columnar.select" ~chunks t.n_rows (fun c lo hi ->
      let buf = bufs.(c) in
      for i = lo to hi - 1 do
        if test i then ibuf_push buf i
      done);
  gather t (ibuf_concat bufs)

let project names t =
  let idxs = List.map (Schema.column_index t.tschema) names in
  {
    tschema = Schema.project t.tschema names;
    n_rows = t.n_rows;
    cols = Array.of_list (List.map (fun j -> t.cols.(j)) idxs);
  }

let extend ?pool defs t =
  let added = Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) defs) in
  let out_schema = Schema.concat t.tschema added in
  let kenv = env t in
  (* Every defining expression reads the input schema, as the row oracle's
     extend does. *)
  let interpret ty e =
    Column.of_det_cells ?pool ~ty ~rows:t.n_rows ~reps:1 (fun i ->
        Expr.eval t.tschema (row t i) e)
  in
  let build (_, ty, e) =
    match Kernel.compile kenv e with
    | Some node -> Kernel.materialize ?pool ~rows:t.n_rows ~reps:1 node
    | None -> interpret ty e
  in
  {
    tschema = out_schema;
    n_rows = t.n_rows;
    cols = Array.append t.cols (Array.of_list (List.map build defs));
  }

let no_nulls = function
  | None -> fun _ -> false
  | Some (flags : bool array) -> fun i -> flags.(i)

let join_index ?pool (probe, probe_rows) (build, build_rows) =
  let enc =
    match Keycode.of_columns [ build; probe ] with
    | Some enc -> enc
    | None -> invalid_arg "Columnar.join_index: uncertain key column"
  in
  (* One unboxed key per row, an open-addressing build table, and
     build-order match chains (head/next/tail per key id). *)
  let bcoded = Keycode.codes ?pool enc ~side:0 ~rows:build_rows in
  let pcoded = Keycode.codes ?pool enc ~side:1 ~rows:probe_rows in
  let bnull = no_nulls bcoded.null_rows and pnull = no_nulls pcoded.null_rows in
  let tbl = Keycode.tbl_create ~hint:build_rows bcoded.keys in
  let head = ref (Array.make (max 16 (build_rows / 4)) (-1)) in
  let tail = ref (Array.make (Array.length !head) (-1)) in
  let len = ref (Array.make (Array.length !head) 0) in
  let next = Array.make build_rows (-1) in
  for j = 0 to build_rows - 1 do
    if not (bnull j) then begin
      let id = Keycode.tbl_add tbl j in
      if id >= Array.length !head then begin
        let grow fill a =
          let bigger = Array.make (2 * Array.length a) fill in
          Array.blit a 0 bigger 0 (Array.length a);
          bigger
        in
        head := grow (-1) !head;
        tail := grow (-1) !tail;
        len := grow 0 !len
      end;
      if !head.(id) < 0 then !head.(id) <- j else next.(!tail.(id)) <- j;
      !tail.(id) <- j;
      !len.(id) <- !len.(id) + 1
    end
  done;
  let head = !head and len = !len in
  (* Two passes over the same chunks: the first finds each probe row's
     key id and counts its chunk's matches, the second writes the
     pairs at the chunk's offset. Output pairs cost exactly their two
     index words, and chunk order is row order whatever the chunking. *)
  let chunks = n_chunks ?pool probe_rows in
  let found = Array.make probe_rows (-1) in
  let starts = Array.make (chunks + 1) 0 in
  iter_chunks ?pool ~site:"columnar.join.probe" ~chunks probe_rows (fun c lo hi ->
      let m = ref 0 in
      for i = lo to hi - 1 do
        if not (pnull i) then begin
          let id = Keycode.tbl_find tbl pcoded.keys i in
          if id >= 0 then begin
            found.(i) <- id;
            m := !m + len.(id)
          end
        end
      done;
      starts.(c + 1) <- !m);
  for c = 1 to chunks do
    starts.(c) <- starts.(c - 1) + starts.(c)
  done;
  let pi = Array.make starts.(chunks) 0 and bi = Array.make starts.(chunks) 0 in
  iter_chunks ?pool ~site:"columnar.join.emit" ~chunks probe_rows (fun c lo hi ->
      let k = ref starts.(c) in
      for i = lo to hi - 1 do
        let id = found.(i) in
        if id >= 0 then begin
          let j = ref head.(id) in
          while !j >= 0 do
            pi.(!k) <- i;
            bi.(!k) <- !j;
            incr k;
            j := next.(!j)
          done
        end
      done);
  (pi, bi)

let key_cols t names =
  Array.of_list (List.map (fun k -> t.cols.(Schema.column_index t.tschema k)) names)

let equi_join ?pool ~on l r =
  let tschema = Schema.concat l.tschema r.tschema in
  (* Build right, probe left in row order, emit matches in build order —
     the exact row order of the row oracle's equi_join. Null keys never
     match. *)
  let li, ri =
    join_index ?pool
      (key_cols l (List.map fst on), l.n_rows)
      (key_cols r (List.map snd on), r.n_rows)
  in
  {
    tschema;
    n_rows = Array.length li;
    cols = Array.append (Column.gather l.cols li) (Column.gather r.cols ri);
  }

(* --- grouped aggregation -------------------------------------------- *)

(* Typed per-group accumulator, one per (group, aggregate). The same
   shape as Algebra's: count/sum/sum_sq fed in row order so float sums
   come out bit-identical, min/max kept as boxed values under
   [Value.compare] with first-of-equals retained. Sum/Avg/Std feeders
   skip the min/max updates (unobservable through their finishers) to
   stay unboxed on the hot path. *)
type kacc = {
  mutable kcount : int;
  mutable ksum : float;
  mutable ksum_sq : float;
  mutable kvmin : Value.t;
  mutable kvmax : Value.t;
}

let fresh_kacc () =
  { kcount = 0; ksum = 0.; ksum_sq = 0.; kvmin = Value.Null; kvmax = Value.Null }

type feeder = { feed : kacc -> int -> unit; finish : kacc -> Value.t }

let finish_count a = Value.Int a.kcount
let finish_sum a = Value.Float a.ksum

let finish_avg a =
  if a.kcount = 0 then Value.Null
  else Value.Float (a.ksum /. float_of_int a.kcount)

let finish_std a =
  if a.kcount < 2 then Value.Null
  else begin
    let n = float_of_int a.kcount in
    let var = (a.ksum_sq -. (a.ksum *. a.ksum /. n)) /. (n -. 1.) in
    Value.Float (sqrt (Float.max var 0.))
  end

(* Pooled aggregation is two-phase, like Bundle's pooled sweeps: the
   per-row source values are evaluated row-chunked into a flat scratch
   buffer (each row owns its slot), then the order-sensitive
   accumulation replays from the scratch sequentially in row order — so
   the pooled result is the sequential result bit for bit. *)

let float_feeder ?pool ~rows kenv e finish =
  Option.map
    (fun (cell : Kernel.cell) ->
      let null, value =
        match pool with
        | None -> ((fun i -> cell.null i 0), fun i -> cell.value i 0)
        | Some _ ->
          let data = Array1.create Bigarray.float64 Bigarray.c_layout rows in
          let nulls = Bytes.make rows '\000' in
          Mde_par.Pool.iter ?pool ~site:"columnar.group.scratch" rows (fun i ->
              if cell.null i 0 then Bytes.set nulls i '\001'
              else Array1.set data i (cell.value i 0));
          ((fun i -> Bytes.get nulls i <> '\000'), fun i -> Array1.get data i)
      in
      let feed a i =
        if not (null i) then begin
          let x = value i in
          a.kcount <- a.kcount + 1;
          a.ksum <- a.ksum +. x;
          a.ksum_sq <- a.ksum_sq +. (x *. x)
        end
      in
      { feed; finish })
    (Option.bind (Kernel.compile kenv e) Kernel.as_float_cell)

(* Min/Max, and sources the compiler declines, read the boxed cell, so
   string inputs raise in [Value.to_float] exactly as the row oracle's
   feed does. *)
let value_feeder ?pool ~rows read finish =
  let read =
    match pool with
    | None -> read
    | Some _ ->
      let vals = Mde_par.Pool.init ?pool ~site:"columnar.group.scratch" rows read in
      fun i -> vals.(i)
  in
  let feed a i =
    match read i with
    | Value.Null -> ()
    | v ->
      let x = Value.to_float v in
      a.kcount <- a.kcount + 1;
      a.ksum <- a.ksum +. x;
      a.ksum_sq <- a.ksum_sq +. (x *. x);
      if Value.is_null a.kvmin || Value.compare v a.kvmin < 0 then a.kvmin <- v;
      if Value.is_null a.kvmax || Value.compare v a.kvmax > 0 then a.kvmax <- v
  in
  { feed; finish }

(* An aggregate source the kernel compiler declines is interpreted on
   the realized row, as [extend] does for its definitions. *)
let compile_feeder ?pool t kenv agg =
  let rows = t.n_rows in
  let source e =
    match Kernel.compile kenv e with
    | Some node -> fun i -> Kernel.node_value node i 0
    | None -> fun i -> Expr.eval t.tschema (row t i) e
  in
  let numeric e finish =
    match float_feeder ?pool ~rows kenv e finish with
    | Some f -> f
    | None -> value_feeder ?pool ~rows (source e) finish
  in
  match agg with
  | Algebra.Count -> { feed = (fun a _ -> a.kcount <- a.kcount + 1); finish = finish_count }
  | Algebra.Count_if e ->
    let test =
      match Option.bind (Kernel.compile kenv e) Kernel.as_pred with
      | Some p -> fun i -> p i 0
      | None -> fun i -> Expr.eval_bool t.tschema (row t i) e
    in
    let test =
      match pool with
      | None -> test
      | Some _ ->
        let flags = Bytes.make rows '\000' in
        Mde_par.Pool.iter ?pool ~site:"columnar.group.scratch" rows (fun i ->
            if test i then Bytes.set flags i '\001');
        fun i -> Bytes.get flags i <> '\000'
    in
    { feed = (fun a i -> if test i then a.kcount <- a.kcount + 1); finish = finish_count }
  | Algebra.Sum e -> numeric e finish_sum
  | Algebra.Avg e -> numeric e finish_avg
  | Algebra.Std e -> numeric e finish_std
  | Algebra.Min e -> value_feeder ?pool ~rows (source e) (fun a -> a.kvmin)
  | Algebra.Max e -> value_feeder ?pool ~rows (source e) (fun a -> a.kvmax)

let group_by ?pool ~keys ~aggs t =
  let kenv = env t in
  let feeders = Array.of_list (List.map (fun (_, a) -> compile_feeder ?pool t kenv a) aggs) in
  let key_cols = key_cols t keys in
  let key_schema_cols = List.map (fun k -> (k, Schema.column_type t.tschema k)) keys in
  let out_schema =
    Schema.of_list (key_schema_cols @ List.map (fun (n, a) -> (n, Algebra.agg_type a)) aggs)
  in
  (* Per group its first (representative) row and its accumulators, fed
     in row order so float sums come out bit-identical to the row
     oracle's. *)
  let fresh () = Array.map (fun _ -> fresh_kacc ()) feeders in
  let feed accs i = Array.iteri (fun a f -> f.feed accs.(a) i) feeders in
  let firsts, accs =
    match keys with
    | [] ->
      (* A global aggregate: one group, emitted even on empty input. *)
      let accs = fresh () in
      for i = 0 to t.n_rows - 1 do
        feed accs i
      done;
      ([||], [| accs |])
    | _ ->
      let ids, firsts = Keycode.groups ?pool key_cols ~rows:t.n_rows in
      let accs = Array.map (fun _ -> fresh ()) firsts in
      for i = 0 to t.n_rows - 1 do
        feed accs.(ids.(i)) i
      done;
      (firsts, accs)
  in
  (* Output columns are built directly: keys by gathering each group's
     representative row, aggregates from the finishers. *)
  let n_groups = Array.length accs in
  let agg_out =
    Array.of_list
      (List.mapi
         (fun a (_, agg) ->
           Column.of_det_cells ~ty:(Algebra.agg_type agg) ~rows:n_groups ~reps:1 (fun g ->
               feeders.(a).finish accs.(g).(a)))
         aggs)
  in
  {
    tschema = out_schema;
    n_rows = n_groups;
    cols = Array.append (Column.gather key_cols firsts) agg_out;
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
