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

  let row_positions t i ~base out m =
    let m = ref m in
    for b = 0 to t.stride - 1 do
      let byte = Char.code (Bytes.unsafe_get t.bits ((i * t.stride) + b)) in
      if byte <> 0 then
        for bit = 0 to 7 do
          if byte land (1 lsl bit) <> 0 then begin
            Array.unsafe_set out !m (base + (8 * b) + bit);
            incr m
          end
        done
    done;
    !m

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

let slots ~det ~rows ~reps = rows * if det then 1 else reps

(* The typed buffer a builder appends to. Strings are dictionary codes
   in first-seen order, with [-1] for Null. *)
type cells =
  | Cfloats of { mutable fdata : floats }
  | Cints of { mutable idata : int array }
  | Cbools of { mutable bdata : int array }
  | Cstrings of {
      mutable codes : int array;
      table : (string, int) Hashtbl.t;
      mutable dict : string list;  (** newest first *)
    }

type builder = {
  bdet : bool;
  breps : int;
  block : int;  (** slots per row: 1 when deterministic, else [breps] *)
  cells : cells;
  mutable cap : int;  (** rows allocated *)
  mutable len : int;  (** slots written *)
  mutable mask : Bitset.t option;
      (** rows × block null bits, created on the first null: most
          columns have none, and string codes carry their own *)
}

let alloc_cells ty n =
  match (ty : Value.ty) with
  | Value.Tfloat -> Cfloats { fdata = Array1.create Bigarray.float64 Bigarray.c_layout n }
  | Value.Tint -> Cints { idata = Array.make n 0 }
  | Value.Tbool -> Cbools { bdata = Array.make n 0 }
  | Value.Tstring -> Cstrings { codes = Array.make n (-1); table = Hashtbl.create 16; dict = [] }

let builder ~ty ~det ~reps ~rows =
  if reps < 1 then invalid_arg "Column.builder: reps must be >= 1";
  let block = if det then 1 else reps in
  { bdet = det; breps = reps; block; cells = alloc_cells ty (rows * block); cap = rows;
    len = 0; mask = None }

(* The string's dictionary code, assigned on first sight; only a string
   builder interns. *)
let intern b str =
  match b.cells with
  | Cstrings c -> (
    match Hashtbl.find c.table str with
    | k -> k
    | exception Not_found ->
      let k = Hashtbl.length c.table in
      Hashtbl.add c.table str k;
      c.dict <- str :: c.dict;
      k)
  | Cfloats _ | Cints _ | Cbools _ -> assert false

let mask b =
  match b.mask with
  | Some m -> m
  | None ->
    let m = Bitset.create ~rows:b.cap ~reps:b.block false in
    b.mask <- Some m;
    m

let mark_null b s = Bitset.set (mask b) (s / b.block) (s mod b.block)

(* The one typed write: slot [s] of the buffer. *)
let set b s (v : Value.t) =
  match (b.cells, v) with
  | Cfloats c, Value.Float f -> Array1.set c.fdata s f
  | Cints c, Value.Int i -> c.idata.(s) <- i
  | Cbools c, Value.Bool x -> c.bdata.(s) <- Bool.to_int x
  | Cstrings c, Value.String str -> c.codes.(s) <- intern b str
  | Cfloats c, Value.Null ->
    Array1.set c.fdata s nan;
    mark_null b s
  | (Cints _ | Cbools _), Value.Null -> mark_null b s
  | Cstrings _, Value.Null -> ()
  | (Cfloats _ | Cints _ | Cbools _ | Cstrings _), (Value.Float _ | Int _ | Bool _ | String _) ->
    invalid_arg (Printf.sprintf "Column: cell %s is not of the column's type" (Value.to_display v))

let grow b =
  let cap = max 16 (2 * b.cap) in
  let n = cap * b.block and used = b.len in
  let ints fill a =
    let bigger = Array.make n fill in
    Array.blit a 0 bigger 0 used;
    bigger
  in
  (match b.cells with
  | Cfloats c ->
    let bigger = Array1.create Bigarray.float64 Bigarray.c_layout n in
    Array1.blit (Array1.sub c.fdata 0 used) (Array1.sub bigger 0 used);
    c.fdata <- bigger
  | Cints c -> c.idata <- ints 0 c.idata
  | Cbools c -> c.bdata <- ints 0 c.bdata
  | Cstrings c -> c.codes <- ints (-1) c.codes);
  b.mask <-
    Option.map
      (fun m ->
        let bigger = Bitset.create ~rows:cap ~reps:b.block false in
        Bytes.blit m.Bitset.bits 0 bigger.Bitset.bits 0 (Bytes.length m.Bitset.bits);
        bigger)
      b.mask;
  b.cap <- cap

let reserve b = if b.len = b.cap * b.block then grow b

let push b v =
  reserve b;
  set b b.len v;
  b.len <- b.len + 1

let finish b =
  let n = b.len in
  let rows = n / b.block in
  let full = rows = b.cap in
  let ints a = if full then a else Array.sub a 0 n in
  let data =
    match b.cells with
    | Cfloats c -> Floats (if full then c.fdata else Array1.sub c.fdata 0 n)
    | Cints c -> Ints (ints c.idata)
    | Cbools c -> Bools (ints c.bdata)
    | Cstrings c -> Strings { codes = ints c.codes; dict = Array.of_list (List.rev c.dict) }
  in
  let nulls =
    match b.mask with
    | Some m when Bitset.popcount m > 0 ->
      if full then Some m
      else begin
        let exact = Bitset.create ~rows ~reps:b.block false in
        Bytes.blit m.Bitset.bits 0 exact.Bitset.bits 0 (Bytes.length exact.Bitset.bits);
        Some exact
      end
    | Some _ | None -> None
  in
  built ~det:b.bdet ~rows ~reps:b.breps data nulls

(* [get] reads by slot. *)
let build ~ty ~det ~rows ~reps get =
  let b = builder ~ty ~det ~reps ~rows in
  for s = 0 to slots ~det ~rows ~reps - 1 do
    push b (get s)
  done;
  finish b

let of_det_cells ~ty ~rows ~reps get =
  if reps < 1 then invalid_arg "Column.of_det_cells: reps must be >= 1";
  build ~ty ~det:true ~rows ~reps get

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

(* --- views ---------------------------------------------------------- *)

(* Rows [idx] of [base], [block] slots per row: the eager gather a view
   runs once, when it is first read. *)
let gather_storage ~block base idx =
  let out_rows = Array.length idx in
  let gather_int src =
    let dst = Array.make (out_rows * block) 0 in
    if block = 1 then
      for k = 0 to out_rows - 1 do
        Array.unsafe_set dst k (Array.unsafe_get src (Array.unsafe_get idx k))
      done
    else
      for k = 0 to out_rows - 1 do
        Array.blit src (idx.(k) * block) dst (k * block) block
      done;
    dst
  in
  let data =
    match base.data with
    | Floats a ->
      let dst = Array1.create Bigarray.float64 Bigarray.c_layout (out_rows * block) in
      (* Element loops, not Array1.sub + blit: sub allocates a bigarray
         proxy per call, which dominates a row-at-a-time gather. *)
      for k = 0 to out_rows - 1 do
        let i = Array.unsafe_get idx k in
        for r = 0 to block - 1 do
          Array1.unsafe_set dst ((k * block) + r) (Array1.unsafe_get a ((i * block) + r))
        done
      done;
      Floats dst
    | Ints a -> Ints (gather_int a)
    | Bools a -> Bools (gather_int a)
    | Strings { codes; dict } -> Strings { codes = gather_int codes; dict }
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
  | Floats _ -> Value.Tfloat
  | Ints _ -> Value.Tint
  | Bools _ -> Value.Tbool
  | Strings _ -> Value.Tstring

let gather cols idx =
  (* The columns of one operator's input usually share one index vector
     (every view a select or a join emitted), so each distinct source
     vector is composed once per call, not once per column. *)
  let composed = ref [] in
  let compose src =
    match List.assq_opt src !composed with
    | Some c -> c
    | None ->
      let c = Array.make (Array.length idx) 0 in
      for k = 0 to Array.length idx - 1 do
        Array.unsafe_set c k src.(Array.unsafe_get idx k)
      done;
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

(* The built columns that every column of [cols] views through one
   shared index vector, and that vector. Each column's state is read
   once, so a view forced meanwhile is never paired with the index. *)
let bases cols =
  let states = Array.map (fun c -> Atomic.get c.state) cols in
  let shared =
    if Array.length states = 0 then None
    else match states.(0) with View { idx; _ } -> Some idx | Built _ -> None
  in
  Option.bind shared (fun shared ->
      let base c = function
        | View { base = { data; nulls }; idx } when idx == shared ->
          let slots =
            match data with
            | Floats a -> Array1.dim a
            | Ints a | Bools a | Strings { codes = a; _ } -> Array.length a
          in
          let rows = if c.cdet then slots else slots / c.creps in
          Some (built ~det:c.cdet ~rows ~reps:c.creps data nulls)
        | View _ | Built _ -> None
      in
      let out = Array.map2 base cols states in
      if Array.for_all Option.is_some out then Some (Array.map Option.get out, shared) else None)

(* --- access ------------------------------------------------------- *)

type view =
  | Vfloat of { vdet : bool; data : floats; nulls : Bitset.t option }
  | Vint of { vdet : bool; data : int array; nulls : Bitset.t option }
  | Vbool of { vdet : bool; data : int array; nulls : Bitset.t option }
  | Vstring of { vdet : bool; codes : int array; dict : string array }

let view_of vdet { data; nulls } =
  match data with
  | Floats data -> Vfloat { vdet; data; nulls }
  | Ints data -> Vint { vdet; data; nulls }
  | Bools data -> Vbool { vdet; data; nulls }
  | Strings { codes; dict } -> Vstring { vdet; codes; dict }

let view t = view_of t.cdet (storage t)

let source t =
  match Atomic.get t.state with
  | Built s -> (view_of t.cdet s, None)
  | View { base; idx } -> (view_of t.cdet base, Some idx)

let null_at nulls i r =
  match nulls with
  | None -> false
  | Some m -> Bitset.get m i r

(* Cell [(row, rep)] of a storage whose slot is [slot]; [rep] indexes
   the null mask, so it is 0 for deterministic storage. *)
let read { data; nulls } ~slot ~row ~rep =
  match data with
  | Floats a -> if null_at nulls row rep then Value.Null else Value.Float (Array1.get a slot)
  | Ints a -> if null_at nulls row rep then Value.Null else Value.Int a.(slot)
  | Bools a -> if null_at nulls row rep then Value.Null else Value.Bool (a.(slot) <> 0)
  | Strings { codes; dict } ->
    let c = codes.(slot) in
    if c < 0 then Value.Null else Value.String dict.(c)

let value t i r =
  if t.cdet then read (storage t) ~slot:i ~row:i ~rep:0
  else read (storage t) ~slot:((i * t.creps) + r) ~row:i ~rep:r

(* --- realizations ---------------------------------------------------- *)

(* Append cell [(i, r)] of column [c]'s storage [src] to [b], typed to
   typed without boxing. *)
let push_cell b c src i r =
  let slot, rep = if c.cdet then (i, 0) else ((i * c.creps) + r, r) in
  reserve b;
  let s = b.len in
  (match (b.cells, src.data) with
  | Cfloats cs, Floats a ->
    Array1.set cs.fdata s (Array1.get a slot);
    if null_at src.nulls i rep then mark_null b s
  | Cints cs, Ints a ->
    cs.idata.(s) <- a.(slot);
    if null_at src.nulls i rep then mark_null b s
  | Cbools cs, Bools a ->
    cs.bdata.(s) <- a.(slot);
    if null_at src.nulls i rep then mark_null b s
  | Cstrings cs, Strings { codes; dict } ->
    let k = codes.(slot) in
    if k >= 0 then cs.codes.(s) <- intern b dict.(k)
  | (Cfloats _ | Cints _ | Cbools _ | Cstrings _), _ -> set b s (read src ~slot ~row:i ~rep));
  b.len <- s + 1

(* Whether every row of rows × reps storage holds one cell in all its
   slots in the sense of [Value.identical]: the same constructor and,
   for floats, the same bits. The data under a null is not compared:
   nothing defines it. *)
let stable ~rows ~reps { data; nulls } =
  let rows_agree same =
    let rec row i =
      i = rows
      ||
      let base = i * reps and null = null_at nulls i 0 in
      let rec rep r =
        r = reps
        || null_at nulls i r = null
           && (null || same base (base + r))
           && rep (r + 1)
      in
      rep 1 && row (i + 1)
    in
    row 0
  in
  match data with
  | Floats a -> rows_agree (fun s0 s -> Value.same_float (Array1.get a s0) (Array1.get a s))
  | Ints a | Bools a -> rows_agree (fun s0 s -> a.(s0) = a.(s))
  | Strings { codes; _ } -> rows_agree (fun s0 s -> codes.(s0) = codes.(s))

(* A rows × reps column stored deterministically when it is stable:
   every row keeps the cell of its first slot. *)
let compress c =
  if c.cdet || c.creps = 1 then c
  else
    let rows = c.crows and reps = c.creps in
    let ({ data; nulls } as st) = storage c in
    if not (stable ~rows ~reps st) then c
    else
      let first a = Array.init rows (fun i -> a.(i * reps)) in
      let data =
        match data with
        | Floats a ->
          let d = Array1.create Bigarray.float64 Bigarray.c_layout rows in
          for i = 0 to rows - 1 do
            Array1.unsafe_set d i (Array1.get a (i * reps))
          done;
          Floats d
        | Ints a -> Ints (first a)
        | Bools a -> Bools (first a)
        | Strings { codes; dict } -> Strings { codes = first codes; dict }
      in
      let nulls =
        Option.map
          (fun m ->
            let d = Bitset.create ~rows ~reps:1 false in
            for i = 0 to rows - 1 do
              if Bitset.get m i 0 then Bitset.set d i 0
            done;
            d)
          nulls
      in
      built ~det:true ~rows ~reps data nulls

let of_realizations ~ty cols =
  if Array.length cols = 0 then invalid_arg "Column.of_realizations: no realizations";
  let c0 = cols.(0) in
  let rows = c0.crows in
  if not (Array.for_all (fun c -> c.crows = rows) cols) then
    invalid_arg "Column.of_realizations: expects columns of equal length";
  let reps = Array.fold_left (fun n c -> n + c.creps) 0 cols in
  (* One deterministic column serves every repetition. *)
  if Array.for_all (fun c -> c.cdet && c.state == c0.state) cols then { c0 with creps = reps }
  else
    match cols with
    | [| c |] -> compress c
    | _ ->
      (* Interleave: each row holds [cols.(0)]'s repetitions, then
         [cols.(1)]'s, and so on. *)
      let st = Array.map storage cols in
      let b = builder ~ty ~det:false ~reps ~rows in
      for i = 0 to rows - 1 do
        Array.iteri
          (fun k c ->
            for r = 0 to c.creps - 1 do
              push_cell b c st.(k) i r
            done)
          cols
      done;
      compress (finish b)

let of_cells ~ty ~rows ~reps get =
  if reps < 1 then invalid_arg "Column.of_cells: reps must be >= 1";
  compress (build ~ty ~det:(reps = 1) ~rows ~reps (fun s -> get (s / reps) (s mod reps)))
