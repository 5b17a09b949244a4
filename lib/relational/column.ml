module Array1 = Bigarray.Array1

module Bitset = struct
  type t = { rows : int; reps : int; stride : int; bits : Bytes.t }

  (* Invariant: bits beyond [reps] in each row's last byte are 0, so
     popcounts can sum whole bytes without masking. *)

  let popcount8 =
    Array.init 256 (fun b ->
        let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
        go b 0)

  let create ~rows ~reps fill =
    if rows < 0 || reps < 0 then invalid_arg "Bitset.create: negative dimension";
    let stride = (reps + 7) / 8 in
    let bits = Bytes.make (rows * stride) (if fill then '\xff' else '\x00') in
    if fill && reps land 7 <> 0 && stride > 0 then begin
      let tail_mask = Char.chr ((1 lsl (reps land 7)) - 1) in
      for i = 0 to rows - 1 do
        Bytes.set bits (((i + 1) * stride) - 1) tail_mask
      done
    end;
    { rows; reps; stride; bits }

  let rows t = t.rows
  let reps t = t.reps

  let get t i r =
    Char.code (Bytes.get t.bits ((i * t.stride) + (r lsr 3))) land (1 lsl (r land 7))
    <> 0

  let set t i r =
    let b = (i * t.stride) + (r lsr 3) in
    Bytes.set t.bits b (Char.chr (Char.code (Bytes.get t.bits b) lor (1 lsl (r land 7))))

  let unset t i r =
    let b = (i * t.stride) + (r lsr 3) in
    Bytes.set t.bits b
      (Char.chr (Char.code (Bytes.get t.bits b) land lnot (1 lsl (r land 7)) land 0xff))

  let copy t = { t with bits = Bytes.copy t.bits }
  let clear_row t i = Bytes.fill t.bits (i * t.stride) t.stride '\x00'

  let popcount t =
    let acc = ref 0 in
    for b = 0 to Bytes.length t.bits - 1 do
      acc := !acc + popcount8.(Char.code (Bytes.unsafe_get t.bits b))
    done;
    !acc

  let row_popcount t i =
    let acc = ref 0 in
    for b = i * t.stride to ((i + 1) * t.stride) - 1 do
      acc := !acc + popcount8.(Char.code (Bytes.unsafe_get t.bits b))
    done;
    !acc

  let and_rows ~dst k ~a i ~b j =
    if a.reps <> b.reps || a.reps <> dst.reps then
      invalid_arg "Bitset.and_rows: repetition counts differ";
    for byte = 0 to dst.stride - 1 do
      Bytes.set dst.bits
        ((k * dst.stride) + byte)
        (Char.chr
           (Char.code (Bytes.get a.bits ((i * a.stride) + byte))
           land Char.code (Bytes.get b.bits ((j * b.stride) + byte))))
    done

  let gather_rows t idx =
    let out = create ~rows:(Array.length idx) ~reps:t.reps false in
    Array.iteri
      (fun k i -> Bytes.blit t.bits (i * t.stride) out.bits (k * t.stride) t.stride)
      idx;
    out
end

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Array1.t

type data =
  | Floats of floats
  | Ints of int array
  | Bools of int array
  | Strings of { codes : int array; dict : string array }
  | Values of Value.t array

type storage = {
  data : data;
  nulls : Bitset.t option;  (** geometry rows × (det ? 1 : reps); None = no nulls *)
}

(* A column's cells are either built, or a view: row [k] is row
   [idx.(k)] of a built [base], gathered on first read. Gathering a view
   composes its index onto the same base, so [base] is never itself a
   view. The forced storage replaces the view in one compare-and-set, so
   the base is dropped and concurrent readers on different domains all
   get the first storage published (a [Lazy] forced from two domains at
   once raises). *)
type state = Built of storage | View of { base : storage; idx : int array }

type t = { cdet : bool; crows : int; creps : int; state : state Atomic.t }

let det t = t.cdet
let rows t = t.crows
let reps t = t.creps

let built ~det ~rows ~reps data nulls =
  { cdet = det; crows = rows; creps = reps; state = Atomic.make (Built { data; nulls }) }

(* --- construction ------------------------------------------------- *)

exception Untyped
(* A cell contradicted the declared column type; degrade to boxed. *)

let slots ~det ~rows ~reps = rows * if det then 1 else reps

(* Lazily-created null mask: most columns have none. *)
let make_nulls ~det ~rows ~reps =
  let mask = ref None in
  let mark s =
    let m =
      match !mask with
      | Some m -> m
      | None ->
        let m = Bitset.create ~rows ~reps:(if det then 1 else reps) false in
        mask := Some m;
        m
    in
    if det then Bitset.set m s 0 else Bitset.set m (s / reps) (s mod reps)
  in
  (mask, mark)

let fill_floats ~det ~rows ~reps get =
  let n = slots ~det ~rows ~reps in
  let data = Array1.create Bigarray.float64 Bigarray.c_layout n in
  let mask, mark = make_nulls ~det ~rows ~reps in
  for s = 0 to n - 1 do
    match (get s : Value.t) with
    | Value.Float f -> Array1.set data s f
    | Value.Null ->
      Array1.set data s nan;
      mark s
    | Value.Int _ | Value.String _ | Value.Bool _ -> raise Untyped
  done;
  (Floats data, !mask)

let fill_ints ~det ~rows ~reps get =
  let n = slots ~det ~rows ~reps in
  let data = Array.make n 0 in
  let mask, mark = make_nulls ~det ~rows ~reps in
  for s = 0 to n - 1 do
    match (get s : Value.t) with
    | Value.Int i -> data.(s) <- i
    | Value.Null -> mark s
    | Value.Float _ | Value.String _ | Value.Bool _ -> raise Untyped
  done;
  (Ints data, !mask)

let fill_bools ~det ~rows ~reps get =
  let n = slots ~det ~rows ~reps in
  let data = Array.make n 0 in
  let mask, mark = make_nulls ~det ~rows ~reps in
  for s = 0 to n - 1 do
    match (get s : Value.t) with
    | Value.Bool b -> data.(s) <- Bool.to_int b
    | Value.Null -> mark s
    | Value.Float _ | Value.String _ | Value.Int _ -> raise Untyped
  done;
  (Bools data, !mask)

let fill_strings ~det ~rows ~reps get =
  let n = slots ~det ~rows ~reps in
  let codes = Array.make n (-1) in
  let table : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rev = ref [] in
  let next = ref 0 in
  for s = 0 to n - 1 do
    match (get s : Value.t) with
    | Value.String str ->
      codes.(s) <-
        (match Hashtbl.find_opt table str with
        | Some c -> c
        | None ->
          let c = !next in
          incr next;
          Hashtbl.add table str c;
          rev := str :: !rev;
          c)
    | Value.Null -> ()
    | Value.Float _ | Value.Bool _ | Value.Int _ -> raise Untyped
  done;
  (Strings { codes; dict = Array.of_list (List.rev !rev) }, None)

let fill_values ~det ~rows ~reps get =
  (Values (Array.init (slots ~det ~rows ~reps) get), None)

let build ~ty ~det ~rows ~reps get =
  (* [get] here reads by slot; map back to (i, r). *)
  let data, nulls =
    try
      match (ty : Value.ty) with
      | Value.Tfloat -> fill_floats ~det ~rows ~reps get
      | Value.Tint -> fill_ints ~det ~rows ~reps get
      | Value.Tbool -> fill_bools ~det ~rows ~reps get
      | Value.Tstring -> fill_strings ~det ~rows ~reps get
    with Untyped -> fill_values ~det ~rows ~reps get
  in
  built ~det ~rows ~reps data nulls

let of_cells ~ty ~rows ~reps get =
  if reps < 1 then invalid_arg "Column.of_cells: reps must be >= 1";
  let is_det =
    try
      for i = 0 to rows - 1 do
        let v0 = get i 0 in
        for r = 1 to reps - 1 do
          if not (Value.equal (get i r) v0) then raise Exit
        done
      done;
      true
    with Exit -> false
  in
  if is_det then build ~ty ~det:true ~rows ~reps (fun s -> get s 0)
  else build ~ty ~det:false ~rows ~reps (fun s -> get (s / reps) (s mod reps))

let of_det_cells ?pool ~ty ~rows ~reps get =
  if reps < 1 then invalid_arg "Column.of_det_cells: reps must be >= 1";
  match pool with
  | None -> build ~ty ~det:true ~rows ~reps get
  | Some p ->
    (* Pooled direct fill: rows are chunked over the pool and written
       straight into the typed storage — no intermediate boxed cell
       array. Det storage has one slot and one null-mask byte per row,
       so row-chunked writes touch disjoint memory. A cell contradicting
       [ty] degrades to boxed storage exactly as the sequential build,
       re-evaluating [get]: the rare path pays twice, the common path
       never boxes. *)
    let seal mask = if Bitset.popcount mask = 0 then None else Some mask in
    let data, nulls =
      try
        match (ty : Value.ty) with
        | Value.Tfloat ->
          let data = Array1.create Bigarray.float64 Bigarray.c_layout rows in
          let mask = Bitset.create ~rows ~reps:1 false in
          Mde_par.Pool.parallel_iter p ~site:"column.fill" rows (fun i ->
              match (get i : Value.t) with
              | Value.Float f -> Array1.set data i f
              | Value.Null ->
                Array1.set data i nan;
                Bitset.set mask i 0
              | Value.Int _ | Value.String _ | Value.Bool _ -> raise Untyped);
          (Floats data, seal mask)
        | Value.Tint ->
          let data = Array.make rows 0 in
          let mask = Bitset.create ~rows ~reps:1 false in
          Mde_par.Pool.parallel_iter p ~site:"column.fill" rows (fun i ->
              match (get i : Value.t) with
              | Value.Int v -> data.(i) <- v
              | Value.Null -> Bitset.set mask i 0
              | Value.Float _ | Value.String _ | Value.Bool _ -> raise Untyped);
          (Ints data, seal mask)
        | Value.Tbool ->
          let data = Array.make rows 0 in
          let mask = Bitset.create ~rows ~reps:1 false in
          Mde_par.Pool.parallel_iter p ~site:"column.fill" rows (fun i ->
              match (get i : Value.t) with
              | Value.Bool b -> data.(i) <- Bool.to_int b
              | Value.Null -> Bitset.set mask i 0
              | Value.Float _ | Value.String _ | Value.Int _ -> raise Untyped);
          (Bools data, seal mask)
        | Value.Tstring ->
          (* Dictionary codes are assigned in first-seen order, which is
             inherently sequential: evaluate cells in parallel (that is
             where the expression cost lives), encode sequentially. *)
          let cells = Mde_par.Pool.parallel_init p ~site:"column.fill" rows get in
          fill_strings ~det:true ~rows ~reps (fun s -> cells.(s))
      with Untyped ->
        (Values (Mde_par.Pool.parallel_init p ~site:"column.fill" rows get), None)
    in
    built ~det:true ~rows ~reps data nulls

let infer_rows ~det ~reps n = if det then n else n / reps

let of_floats ~det ~reps ?nulls data =
  let rows = infer_rows ~det ~reps (Array1.dim data) in
  built ~det ~rows ~reps (Floats data) nulls

let of_ints ~det ~reps ?nulls data =
  let rows = infer_rows ~det ~reps (Array.length data) in
  built ~det ~rows ~reps (Ints data) nulls

let of_bools ~det ~reps ?nulls data =
  let rows = infer_rows ~det ~reps (Array.length data) in
  built ~det ~rows ~reps (Bools data) nulls

let of_codes ~det ~reps ~dict codes =
  let rows = infer_rows ~det ~reps (Array.length codes) in
  built ~det ~rows ~reps (Strings { codes; dict }) None

let of_values ~det ~reps data =
  let rows = infer_rows ~det ~reps (Array.length data) in
  built ~det ~rows ~reps (Values data) None

(* --- views ---------------------------------------------------------- *)

(* Rows [idx] of [base], [block] slots per row: the eager gather a view
   runs once, when it is first read. *)
let gather_storage ~block base idx =
  let out_rows = Array.length idx in
  let gather_int src =
    let dst = Array.make (out_rows * block) 0 in
    if block = 1 then
      Array.iteri (fun k i -> Array.unsafe_set dst k (Array.unsafe_get src i)) idx
    else Array.iteri (fun k i -> Array.blit src (i * block) dst (k * block) block) idx;
    dst
  in
  let data =
    match base.data with
    | Floats a ->
      let dst = Array1.create Bigarray.float64 Bigarray.c_layout (out_rows * block) in
      (* Element loops, not Array1.sub + blit: sub allocates a bigarray
         proxy per call, which dominates a row-at-a-time gather. *)
      if block = 1 then
        Array.iteri (fun k i -> Array1.unsafe_set dst k (Array1.unsafe_get a i)) idx
      else
        Array.iteri
          (fun k i ->
            for r = 0 to block - 1 do
              Array1.unsafe_set dst ((k * block) + r)
                (Array1.unsafe_get a ((i * block) + r))
            done)
          idx;
      Floats dst
    | Ints a -> Ints (gather_int a)
    | Bools a -> Bools (gather_int a)
    | Strings { codes; dict } -> Strings { codes = gather_int codes; dict }
    | Values a ->
      let dst = Array.make (out_rows * block) Value.Null in
      Array.iteri (fun k i -> Array.blit a (i * block) dst (k * block) block) idx;
      Values dst
  in
  { data; nulls = Option.map (fun m -> Bitset.gather_rows m idx) base.nulls }

(* The column's storage, forcing a view: the first storage published
   wins, and a domain that loses the race drops its copy. *)
let rec storage t =
  match Atomic.get t.state with
  | Built s -> s
  | View { base; idx } as seen -> (
    let s = gather_storage ~block:(if t.cdet then 1 else t.creps) base idx in
    (* A failed compare-and-set means another domain published: a state
       only ever moves from view to built, so the retry reads it. *)
    if Atomic.compare_and_set t.state seen (Built s) then s else storage t)

let materialized t = match Atomic.get t.state with Built _ -> true | View _ -> false

let storage_ty t =
  let base = match Atomic.get t.state with Built s -> s | View { base; _ } -> base in
  match base.data with
  | Floats _ -> Some Value.Tfloat
  | Ints _ -> Some Value.Tint
  | Bools _ -> Some Value.Tbool
  | Strings _ -> Some Value.Tstring
  | Values _ -> None

let gather cols idx =
  (* The columns of one operator's input usually share one index vector
     (every view a select or a join emitted), so each distinct source
     vector is composed once per call, not once per column. *)
  let composed = ref [] in
  let compose src =
    match List.assq_opt src !composed with
    | Some c -> c
    | None ->
      let c = Array.map (fun i -> src.(i)) idx in
      composed := (src, c) :: !composed;
      c
  in
  Array.map
    (fun c ->
      let base, idx =
        match Atomic.get c.state with
        | Built s -> (s, idx)
        | View { base; idx = src } -> (base, compose src)
      in
      {
        cdet = c.cdet;
        crows = Array.length idx;
        creps = c.creps;
        state = Atomic.make (View { base; idx });
      })
    cols

(* --- access ------------------------------------------------------- *)

type view =
  | Vfloat of { vdet : bool; data : floats; nulls : Bitset.t option }
  | Vint of { vdet : bool; data : int array; nulls : Bitset.t option }
  | Vbool of { vdet : bool; data : int array; nulls : Bitset.t option }
  | Vstring of { vdet : bool; codes : int array; dict : string array }
  | Vvalues of { vdet : bool; data : Value.t array }

let view t =
  let { data; nulls } = storage t in
  match data with
  | Floats data -> Vfloat { vdet = t.cdet; data; nulls }
  | Ints data -> Vint { vdet = t.cdet; data; nulls }
  | Bools data -> Vbool { vdet = t.cdet; data; nulls }
  | Strings { codes; dict } -> Vstring { vdet = t.cdet; codes; dict }
  | Values data -> Vvalues { vdet = t.cdet; data }

let is_null t nulls i r =
  match nulls with
  | None -> false
  | Some m -> Bitset.get m i (if t.cdet then 0 else r)

let value t i r =
  let { data; nulls } = storage t in
  let s = if t.cdet then i else (i * t.creps) + r in
  match data with
  | Floats a -> if is_null t nulls i r then Value.Null else Value.Float (Array1.get a s)
  | Ints a -> if is_null t nulls i r then Value.Null else Value.Int a.(s)
  | Bools a -> if is_null t nulls i r then Value.Null else Value.Bool (a.(s) <> 0)
  | Strings { codes; dict } ->
    let c = codes.(s) in
    if c < 0 then Value.Null else Value.String dict.(c)
  | Values a -> a.(s)
