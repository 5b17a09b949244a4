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
  (* Every defining expression reads the input schema, as Algebra.extend. *)
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

let equi_join ?pool ~on l r =
  let out_schema = Schema.concat l.tschema r.tschema in
  let l_idx = List.map (fun (a, _) -> Schema.column_index l.tschema a) on in
  let r_idx = List.map (fun (_, b) -> Schema.column_index r.tschema b) on in
  let emit li ri =
    {
      tschema = out_schema;
      n_rows = Array.length li;
      cols = Array.append (Column.gather l.cols li) (Column.gather r.cols ri);
    }
  in
  (* Build right, probe left in row order, emit matches in build order —
     the exact row order Algebra.equi_join produces. Null keys never
     match. *)
  let key_cols t idxs = Array.of_list (List.map (fun j -> t.cols.(j)) idxs) in
  let enc =
    if on = [] then None else Keycode.of_columns [ key_cols r r_idx; key_cols l l_idx ]
  in
  match enc with
  | Some enc ->
    (* Packed path: one unboxed key per row, an open-addressing build
       table, and build-order match chains (head/next/tail per key id)
       replacing the boxed Value.Tbl + find_all + List.rev churn. *)
    let bcoded = Keycode.encode ?pool enc ~side:0 in
    let pcoded = Keycode.encode ?pool enc ~side:1 in
    let bnull = no_nulls bcoded.null_rows and pnull = no_nulls pcoded.null_rows in
    let tbl = Keycode.tbl_create ~hint:r.n_rows bcoded.keys in
    let head = ref (Array.make (max 16 (r.n_rows / 4)) (-1)) in
    let tail = ref (Array.make (Array.length !head) (-1)) in
    let len = ref (Array.make (Array.length !head) 0) in
    let next = Array.make r.n_rows (-1) in
    for j = 0 to r.n_rows - 1 do
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
    let chunks = n_chunks ?pool l.n_rows in
    let found = Array.make l.n_rows (-1) in
    let starts = Array.make (chunks + 1) 0 in
    iter_chunks ?pool ~site:"columnar.join.probe" ~chunks l.n_rows (fun c lo hi ->
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
    let li = Array.make starts.(chunks) 0 and ri = Array.make starts.(chunks) 0 in
    iter_chunks ?pool ~site:"columnar.join.emit" ~chunks l.n_rows (fun c lo hi ->
        let k = ref starts.(c) in
        for i = lo to hi - 1 do
          let id = found.(i) in
          if id >= 0 then begin
            let j = ref head.(id) in
            while !j >= 0 do
              li.(!k) <- i;
              ri.(!k) <- !j;
              incr k;
              j := next.(!j)
            done
          end
        done);
    emit li ri
  | None ->
    let key_of t idxs i = List.map (fun j -> Column.value t.cols.(j) i 0) idxs in
    let build = Value.Tbl.create (max 16 r.n_rows) in
    for j = 0 to r.n_rows - 1 do
      let key = key_of r r_idx j in
      if not (List.exists Value.is_null key) then Value.Tbl.add build key j
    done;
    let pairs = ref [] in
    for i = 0 to l.n_rows - 1 do
      let key = key_of l l_idx i in
      if not (List.exists Value.is_null key) then
        (* find_all returns most-recent first; restore build order. *)
        List.iter
          (fun j -> pairs := (i, j) :: !pairs)
          (List.rev (Value.Tbl.find_all build key))
    done;
    let pairs = Array.of_list (List.rev !pairs) in
    emit (Array.map fst pairs) (Array.map snd pairs)

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

(* Min/Max read the boxed cell so string inputs raise in [Value.to_float]
   exactly as the row oracle's feed does. *)
let value_feeder ?pool ~rows kenv e finish =
  Option.map
    (fun node ->
      let read =
        match pool with
        | None -> fun i -> Kernel.node_value node i 0
        | Some _ ->
          let vals =
            Mde_par.Pool.init ?pool ~site:"columnar.group.scratch" rows (fun i ->
                Kernel.node_value node i 0)
          in
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
      { feed; finish })
    (Kernel.compile kenv e)

let compile_feeder ?pool ~rows kenv = function
  | Algebra.Count ->
    Some { feed = (fun a _ -> a.kcount <- a.kcount + 1); finish = finish_count }
  | Algebra.Count_if e ->
    Option.map
      (fun p ->
        let test =
          match pool with
          | None -> fun i -> p i 0
          | Some _ ->
            let flags = Bytes.make rows '\000' in
            Mde_par.Pool.iter ?pool ~site:"columnar.group.scratch" rows (fun i ->
                if p i 0 then Bytes.set flags i '\001');
            fun i -> Bytes.get flags i <> '\000'
        in
        {
          feed = (fun a i -> if test i then a.kcount <- a.kcount + 1);
          finish = finish_count;
        })
      (Option.bind (Kernel.compile kenv e) Kernel.as_pred)
  | Algebra.Sum e -> float_feeder ?pool ~rows kenv e finish_sum
  | Algebra.Avg e -> float_feeder ?pool ~rows kenv e finish_avg
  | Algebra.Std e -> float_feeder ?pool ~rows kenv e finish_std
  | Algebra.Min e -> value_feeder ?pool ~rows kenv e (fun a -> a.kvmin)
  | Algebra.Max e -> value_feeder ?pool ~rows kenv e (fun a -> a.kvmax)

let group_by ?pool ~keys ~aggs t =
  let feeders =
    let kenv = env t in
    let rec all = function
      | [] -> Some []
      | (_, a) :: rest ->
        Option.bind (compile_feeder ?pool ~rows:t.n_rows kenv a) (fun f ->
            Option.map (fun fs -> f :: fs) (all rest))
    in
    Option.map Array.of_list (all aggs)
  in
  match feeders with
  | None ->
    (* Any aggregate the compiler does not cover drops the whole group-by
       to the row oracle itself — identical by construction. *)
    of_table (Algebra.group_by ~keys ~aggs (to_table t))
  | Some feeders ->
    let key_cols =
      Array.of_list (List.map (fun k -> t.cols.(Schema.column_index t.tschema k)) keys)
    in
    let key_schema_cols = List.map (fun k -> (k, Schema.column_type t.tschema k)) keys in
    let out_schema =
      Schema.of_list
        (key_schema_cols @ List.map (fun (n, a) -> (n, Algebra.agg_type a)) aggs)
    in
    let n_aggs = Array.length feeders in
    (* Dense first-seen group ids; per group its first (representative)
       row and its accumulators, fed in row order so float sums come out
       bit-identical to the row oracle's. *)
    let accs_store = ref (Array.make 16 [||]) in
    let rep_store = ref (Array.make 16 0) in
    let n_groups = ref 0 in
    let new_group i =
      let id = !n_groups in
      if id = Array.length !accs_store then begin
        let grow fill a =
          let bigger = Array.make (2 * Array.length a) fill in
          Array.blit a 0 bigger 0 (Array.length a);
          bigger
        in
        accs_store := grow [||] !accs_store;
        rep_store := grow 0 !rep_store
      end;
      !accs_store.(id) <- Array.init n_aggs (fun _ -> fresh_kacc ());
      !rep_store.(id) <- i;
      incr n_groups
    in
    let feed id i =
      let accs = !accs_store.(id) in
      Array.iteri (fun a f -> f.feed accs.(a) i) feeders
    in
    (match Keycode.of_columns [ key_cols ] with
    | Some enc ->
      (* Packed path: one unboxed key per row instead of a boxed
         [Value.t list]; the open-addressing table hands out ids in
         first-seen order. *)
      let coded = Keycode.encode ?pool enc ~side:0 in
      let tbl = Keycode.tbl_create ~hint:(max 16 (t.n_rows / 8)) coded.keys in
      for i = 0 to t.n_rows - 1 do
        let id = Keycode.tbl_add tbl i in
        if id = !n_groups then new_group i;
        feed id i
      done
    | None when keys = [] ->
      (* A global aggregate: one group, emitted even on empty input. *)
      new_group 0;
      for i = 0 to t.n_rows - 1 do
        feed 0 i
      done
    | None ->
      (* Keys Keycode refuses ([Vvalues] storage): boxed key lists. *)
      let ids = Value.Tbl.create 64 in
      for i = 0 to t.n_rows - 1 do
        let key = Array.to_list (Array.map (fun c -> Column.value c i 0) key_cols) in
        match Value.Tbl.find_opt ids key with
        | Some id -> feed id i
        | None ->
          Value.Tbl.add ids key !n_groups;
          new_group i;
          feed (!n_groups - 1) i
      done);
    (* Output columns are built directly: keys by gathering each group's
       representative row, aggregates from the finishers. *)
    let n_groups = !n_groups in
    let accs_store = !accs_store in
    let rep_idx = Array.sub !rep_store 0 n_groups in
    let key_out = Column.gather key_cols rep_idx in
    let agg_out =
      Array.of_list
        (List.mapi
           (fun a (_, agg) ->
             Column.of_det_cells ~ty:(Algebra.agg_type agg) ~rows:n_groups ~reps:1
               (fun g -> feeders.(a).finish accs_store.(g).(a)))
           aggs)
    in
    { tschema = out_schema; n_rows = n_groups; cols = Array.append key_out agg_out }

(* --- ordering, distinct, limit -------------------------------------- *)

(* Per-column typed comparator agreeing with [Value.compare] on a typed
   column's possible values: Null sorts below everything, floats through
   [Float.compare] (NaN lowest, -0. < 0.), strings through the
   dictionary. *)
let cmp_nulls is_null cmp i j =
  match (is_null i, is_null j) with
  | true, true -> 0
  | true, false -> -1
  | false, true -> 1
  | false, false -> cmp i j

let slot_compare col =
  let masked nulls =
    match nulls with
    | None -> fun _ -> false
    | Some m -> fun i -> Column.Bitset.get m i 0
  in
  match Column.view col with
  | Column.Vfloat { data; nulls; _ } ->
    cmp_nulls (masked nulls) (fun i j -> Float.compare (Array1.get data i) (Array1.get data j))
  | Column.Vint { data; nulls; _ } ->
    cmp_nulls (masked nulls) (fun i j -> Int.compare data.(i) data.(j))
  | Column.Vbool { data; nulls; _ } ->
    (* 0/1 under Int.compare agrees with Bool.compare. *)
    cmp_nulls (masked nulls) (fun i j -> Int.compare data.(i) data.(j))
  | Column.Vstring { codes; dict; _ } ->
    cmp_nulls
      (fun i -> codes.(i) < 0)
      (fun i j -> String.compare dict.(codes.(i)) dict.(codes.(j)))
  | Column.Vvalues { data; _ } -> fun i j -> Value.compare data.(i) data.(j)

let order_by ?(descending = false) names t =
  let cols =
    Array.of_list (List.map (fun k -> t.cols.(Schema.column_index t.tschema k)) names)
  in
  match Keycode.sort_perm ~descending cols ~n_rows:t.n_rows with
  | Some perm ->
    (* One extracted normalized key per row: the packed image agrees
       with the comparator chain below on order and ties, so the
       permutation is identical. *)
    gather t perm
  | None ->
  let cmps = Array.to_list (Array.map slot_compare cols) in
  let key_cmp i j =
    let rec go = function
      | [] -> 0
      | c :: rest ->
        let v = c i j in
        if v <> 0 then v else go rest
    in
    go cmps
  in
  let perm = Array.init t.n_rows Fun.id in
  (* Array.sort is not stable; break ties on the original index, exactly
     as Algebra.order_by (descending negates keys, never the tiebreak). *)
  Array.sort
    (fun a b ->
      let c =
        let c = key_cmp a b in
        if descending then -c else c
      in
      if c <> 0 then c else Int.compare a b)
    perm;
  gather t perm

let distinct ?pool t =
  let enc = if Array.length t.cols > 0 then Keycode.of_columns [ t.cols ] else None in
  match enc with
  | Some enc ->
    (* A row is kept iff its packed key is fresh; dense first-seen ids
       make "fresh" one integer comparison. Null cells are ordinary key
       codes here — Null = Null under Value.Key, exactly as the boxed
       path's [Value.Tbl.mem]. *)
    let coded = Keycode.encode ?pool enc ~side:0 in
    let tbl = Keycode.tbl_create ~hint:(max 16 (t.n_rows / 4)) coded.keys in
    let keep = ibuf_create () in
    for i = 0 to t.n_rows - 1 do
      if Keycode.tbl_add tbl i = keep.ilen then ibuf_push keep i
    done;
    gather t (Array.sub keep.ib 0 keep.ilen)
  | None ->
    let seen = Value.Tbl.create 64 in
    let idx = ref [] in
    let n = ref 0 in
    for i = 0 to t.n_rows - 1 do
      let key = Array.to_list (row t i) in
      if not (Value.Tbl.mem seen key) then begin
        Value.Tbl.add seen key ();
        idx := i :: !idx;
        incr n
      end
    done;
    gather t (Array.of_list (List.rev !idx))

let limit n t =
  (* Not an assert: validation must survive [-noassert] builds. *)
  if n < 0 then invalid_arg "Columnar.limit: negative row count";
  gather t (Array.init (min n t.n_rows) Fun.id)
