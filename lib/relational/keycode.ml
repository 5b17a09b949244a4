(* Packed key codes. See keycode.mli for the semantic contract; the
   short version is that every code below must be injective w.r.t.
   Value.Key equality over the cells it covers, and a pure function of
   the encoder and the row. *)

module Array1 = Bigarray.Array1

(* --- key tables ---------------------------------------------------- *)

(* Open addressing over immediate int keys: linear probing with a
   multiplicative (Fibonacci) hash. The 62-bit odd constant keeps the
   literal inside OCaml's boxed-free int range; the xor-fold pulls the
   high-entropy bits down into the slot index. *)
let int_hash k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land max_int

type slots = {
  mutable mask : int;  (* capacity - 1, capacity a power of two *)
  mutable slot_keys : int array;
  mutable slot_ids : int array;  (* -1 = empty *)
}

(* A table is direct or hashed, fixed at creation from its build keys.
   Direct: key [k] of [base, top] has its id at [ids.(k - base)] (-1:
   not added yet), so a lookup is one load. *)
type tbl = { build_keys : int array; mutable count : int; index : index }

and index = Direct of { base : int; top : int; ids : int array } | Hashed of slots

(* Slots a hashed table starts with: a power of two, at least 16 and
   twice the expected number of keys. *)
let capacity ~hint =
  let c = ref 16 in
  while !c < hint * 2 do c := !c * 2 done;
  !c

let hashed ~cap build_keys =
  {
    build_keys;
    count = 0;
    index = Hashed { mask = cap - 1; slot_keys = Array.make cap 0; slot_ids = Array.make cap (-1) };
  }

(* Direct when the build keys' span takes no more words than the hashed
   table's two arrays at creation ([span + 1 <= 2 cap]), so a direct
   table is never the larger. [span < 0] is [top - base] overflowing: a
   span past [max_int] hashes, as do no keys at all. *)
let tbl_create ~hint build_keys =
  let cap = capacity ~hint in
  let base = ref max_int and top = ref min_int in
  for i = 0 to Array.length build_keys - 1 do
    let k = build_keys.(i) in
    if k < !base then base := k;
    if k > !top then top := k
  done;
  let span = !top - !base in
  if Array.length build_keys > 0 && span >= 0 && span < 2 * cap then
    {
      build_keys;
      count = 0;
      index = Direct { base = !base; top = !top; ids = Array.make (span + 1) (-1) };
    }
  else hashed ~cap build_keys

let grow s =
  let cap = (s.mask + 1) * 2 in
  let keys = Array.make cap 0 and ids = Array.make cap (-1) in
  let mask = cap - 1 in
  let old_keys = s.slot_keys and old_ids = s.slot_ids in
  Array.iteri
    (fun slot id ->
      if id >= 0 then begin
        let k = old_keys.(slot) in
        let j = ref (int_hash k land mask) in
        while ids.(!j) >= 0 do
          j := (!j + 1) land mask
        done;
        keys.(!j) <- k;
        ids.(!j) <- id
      end)
    old_ids;
  s.mask <- mask;
  s.slot_keys <- keys;
  s.slot_ids <- ids

(* The id of key [k], inserting it if new. A direct table takes only
   keys of its range, which every build key is. *)
let int_add t k =
  match t.index with
  | Direct { base; ids; _ } ->
    let id = ids.(k - base) in
    if id >= 0 then id
    else begin
      let fresh = t.count in
      ids.(k - base) <- fresh;
      t.count <- fresh + 1;
      fresh
    end
  | Hashed s ->
    let mask = s.mask in
    let j = ref (int_hash k land mask) in
    let res = ref (-1) in
    while !res < 0 do
      let id = s.slot_ids.(!j) in
      if id < 0 then begin
        let fresh = t.count in
        s.slot_ids.(!j) <- fresh;
        s.slot_keys.(!j) <- k;
        t.count <- fresh + 1;
        if t.count * 4 > (mask + 1) * 3 then grow s;
        res := fresh
      end
      else if s.slot_keys.(!j) = k then res := id
      else j := (!j + 1) land mask
    done;
    !res

let int_find t k =
  match t.index with
  | Direct { base; top; ids } ->
    if k < base || k > top then -1 else Array.unsafe_get ids (k - base)
  | Hashed s ->
    let mask = s.mask in
    let j = ref (int_hash k land mask) in
    let res = ref min_int in
    while !res = min_int do
      let id = s.slot_ids.(!j) in
      if id < 0 then res := -1
      else if s.slot_keys.(!j) = k then res := id
      else j := (!j + 1) land mask
    done;
    !res

let tbl_count t = t.count

(* The row loops: the table's mode is matched once per call, and a
   direct table's loads are inlined. *)
let tbl_add_rows t ~skip ids =
  let keys = t.build_keys in
  if Array.length ids < Array.length keys then invalid_arg "Keycode.tbl_add_rows: ids too short";
  match (t.index, skip) with
  | Direct { base; ids = slots; _ }, None ->
    for i = 0 to Array.length keys - 1 do
      let slot = Array.unsafe_get keys i - base in
      let id = slots.(slot) in
      Array.unsafe_set ids i
        (if id >= 0 then id
         else begin
           let fresh = t.count in
           slots.(slot) <- fresh;
           t.count <- fresh + 1;
           fresh
         end)
    done
  | _ ->
    for i = 0 to Array.length keys - 1 do
      Array.unsafe_set ids i
        (match skip with
        | Some skip when skip.(i) -> -1
        | _ -> int_add t (Array.unsafe_get keys i))
    done

let tbl_find_rows t ~skip keys lo hi =
  if lo < 0 || hi > Array.length keys then invalid_arg "Keycode.tbl_find_rows: rows out of range";
  (match t.index with
  | Direct { base; top; ids } ->
    for i = lo to hi - 1 do
      let k = Array.unsafe_get keys i in
      Array.unsafe_set keys i (if k < base || k > top then -1 else Array.unsafe_get ids (k - base))
    done
  | Hashed _ ->
    for i = lo to hi - 1 do
      Array.unsafe_set keys i (int_find t (Array.unsafe_get keys i))
    done);
  Option.iter
    (fun skip ->
      for i = lo to hi - 1 do
        if skip.(i) then Array.unsafe_set keys i (-1)
      done)
    skip

(* Smallest w >= 1 with 2^w >= count. Callers guarantee count < 2^62. *)
let bits_for count =
  let w = ref 1 in
  while 1 lsl !w < count do incr w done;
  !w

(* Replaces every side's codes, sides in order, by their dense
   first-seen ids — the shared dictionary that narrows a wide field —
   and returns the ids' width. *)
let densify sides =
  let hint = Array.fold_left (fun n a -> n + Array.length a) 0 sides in
  let t = hashed ~cap:(capacity ~hint) [||] in
  Array.iter (fun a -> Array.iteri (fun i code -> a.(i) <- int_add t code) a) sides;
  bits_for t.count

(* --- component classification ------------------------------------- *)

(* One component of the composite key, classified across all sides.
   Packed components carry the field width in bits; a code of 0 always
   means Null, so a packed key of all-zero fields is the all-null key
   and null detection is "any field extracts to 0". *)
type comp =
  | Craw  (* sole component, int storage, no nulls on any side: the raw
             value is already an injective one-word key (zero-copy) *)
  | Cint of { base : int; width : int }  (* code = v - base + 1 *)
  | Cbool  (* width 2: null 0, false 1, true 2 *)
  | Cstr of { remaps : int array array; width : int }
      (* remaps.(side).(column_code) = shared dictionary code;
         packed code = shared + 1 *)
  | Cdict of { codes : int array array; width : int }
      (* codes.(side).(row): 0 for Null, else 1 + the cell's dense id in
         one dictionary of Value.Key classes shared by every side *)

type mode =
  | Mraw
  | Mpacked
  | Mdense of { keys : int array array; nulls : bool array option array }
      (* a composite wider than one word, coded per side up front *)

type t = { sides : Column.t array array; comps : comp array; mode : mode }

let comp_width = function
  | Cint { width; _ } | Cstr { width; _ } | Cdict { width; _ } -> width
  | Cbool -> 2
  | Craw -> 0

(* Range of int data read through an optional row index ([None]: every
   slot), over every row read: null rows hold the fill default 0, which
   can only widen the range — codes stay injective because base <= every
   non-null value. A view scanned through its index sees exactly the
   slots its forced copy would hold, so widths do not depend on whether
   a view was forced. *)
let int_range srcs =
  let mn, mx =
    List.fold_left
      (fun (mn, mx) ((data : int array), idx) ->
        let mn = ref mn and mx = ref mx in
        let direct = Option.is_none idx and ix = Option.value idx ~default:[||] in
        for k = 0 to (if direct then Array.length data else Array.length ix) - 1 do
          let v = data.(if direct then k else ix.(k)) in
          if v < !mn then mn := v;
          if v > !mx then mx := v
        done;
        (!mn, !mx))
      (max_int, min_int) srcs
  in
  if mn > mx then (0, 0) else (mn, mx)

module Dict = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* The component with no narrow native code: floats, ints next to
   floats or spanning more than 2^61, and mixed kinds across sides. One
   dictionary over the cells read boxed, filled sequentially side by
   side and row by row. *)
let dict_comp cols =
  let dict = Dict.create 64 in
  let codes =
    Array.map
      (fun col ->
        Array.init (Column.rows col) (fun i ->
            match Column.value col i 0 with
            | Value.Null -> 0
            | v -> (
              match Dict.find_opt dict v with
              | Some code -> code
              | None ->
                let code = Dict.length dict + 1 in
                Dict.add dict v code;
                code)))
      cols
  in
  Cdict { codes; width = bits_for (Dict.length dict + 1) }

(* [sole] is true when this is the key's only component: only then may
   an all-int no-null component stay raw (zero-copy Mraw mode) — in a
   composite key every component needs a bounded packed width. *)
let classify_comp ~sole cols =
  let srcs = Array.map Column.source cols in
  let all p = Array.for_all (fun (v, _) -> p v) srcs in
  if all (function Column.Vint _ -> true | _ -> false) then begin
    let no_nulls = all (function Column.Vint { nulls = None; _ } -> true | _ -> false) in
    if sole && no_nulls && Array.length cols = 1 then Craw
    else begin
      let mn, mx =
        int_range
          (Array.to_list srcs
          |> List.filter_map (function Column.Vint { data; _ }, idx -> Some (data, idx) | _ -> None))
      in
      let span = mx - mn in
      (* span < 0 is overflow of the subtraction itself: definitely wide *)
      if span >= 0 && span <= (1 lsl 61) - 2 then
        Cint { base = mn; width = bits_for (span + 2) }
      else dict_comp cols
    end
  end
  else if all (function Column.Vbool _ -> true | _ -> false) then Cbool
  else if all (function Column.Vstring _ -> true | _ -> false) then begin
    let shared : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let next = ref 0 in
    let remaps =
      Array.map
        (function
          | Column.Vstring { dict; _ }, _ ->
            Array.map
              (fun s ->
                match Hashtbl.find_opt shared s with
                | Some c -> c
                | None ->
                  let c = !next in
                  incr next;
                  Hashtbl.add shared s c;
                  c)
              dict
          | _ -> assert false)
        srcs
    in
    Cstr { remaps; width = bits_for (!next + 1) }
  end
  else dict_comp cols

let null_reader nulls =
  match nulls with
  | None -> fun _ -> false
  | Some m -> fun i -> Column.Bitset.get m i 0

(* Packs component [comp] of [side] into rows [lo, hi) of [out]: each
   key shifts left by the component's width and takes its field code,
   0 iff the cell is Null, otherwise >= 1 and injective over the
   component's values. One typed loop per component kind, reading the
   column ([Column.source]) through its view's index, so nothing is
   forced; whether a view's index applies and whether the column has
   Null cells are decided once per loop, not per row, and the loops
   index [out], a built column and the view's index without bounds
   checks once [hi] is checked against each. Returns whether a field
   read 0. *)
let pack comp side (view, idx) out lo hi =
  let w = comp_width comp in
  let within a = if lo < 0 || hi > Array.length a then invalid_arg "Keycode: rows out of range" in
  within out;
  Option.iter within idx;
  let[@inline] put i code = Array.unsafe_set out i ((Array.unsafe_get out i lsl w) lor code) in
  match (comp, view) with
  | Cint _, Column.Vint { data; nulls; _ } | Cbool, Column.Vbool { data; nulls; _ } -> (
    (* Bools are 0/1, so [base] 0 codes them 1/2. *)
    let off = 1 - match comp with Cint { base; _ } -> base | _ -> 0 in
    match (nulls, idx) with
    | None, None ->
      within data;
      for i = lo to hi - 1 do
        put i (Array.unsafe_get data i + off)
      done;
      false
    | None, Some ix ->
      for i = lo to hi - 1 do
        put i (data.(Array.unsafe_get ix i) + off)
      done;
      false
    | Some m, _ ->
      let nul = ref false and ix = Option.value idx ~default:[||] and direct = Option.is_none idx in
      for i = lo to hi - 1 do
        let s = if direct then i else Array.unsafe_get ix i in
        if Column.Bitset.get m s 0 then begin
          nul := true;
          put i 0
        end
        else put i (data.(s) + off)
      done;
      !nul)
  | Cstr { remaps; _ }, Column.Vstring { codes; _ } ->
    (* A Null cell's code is negative, so [seen] is negative iff one
       was read. *)
    let remap = remaps.(side) and seen = ref 0 in
    (match idx with
    | None ->
      within codes;
      for i = lo to hi - 1 do
        let c = Array.unsafe_get codes i in
        seen := !seen lor c;
        put i (if c < 0 then 0 else remap.(c) + 1)
      done
    | Some ix ->
      for i = lo to hi - 1 do
        let c = codes.(Array.unsafe_get ix i) in
        seen := !seen lor c;
        put i (if c < 0 then 0 else remap.(c) + 1)
      done);
    !seen < 0
  | Cdict { codes; _ }, _ ->
    (* Dictionary codes are per row of the side, already coded. *)
    let codes = codes.(side) and nul = ref false in
    within codes;
    for i = lo to hi - 1 do
      let code = Array.unsafe_get codes i in
      if code = 0 then nul := true;
      put i code
    done;
    !nul
  | (Craw | Cint _ | Cbool | Cstr _), _ -> invalid_arg "Keycode: component/storage mismatch"

(* A composite whose fields pass 63 bits, coded per side up front:
   fields pack left to right, and when the next one would not fit, the
   packed prefix is replaced by its dense id. A field too wide to sit
   beside that id is densified itself; two ids over fewer than 2^31 rows
   always fit one word. *)
let dense_mode sides comps =
  let field c =
    Array.mapi
      (fun s cols ->
        let col = cols.(c) in
        let codes = Array.make (Column.rows col) 0 in
        ignore (pack comps.(c) s (Column.source col) codes 0 (Array.length codes));
        codes)
      sides
  in
  let nulls = Array.map (fun cols -> Array.make (Column.rows cols.(0)) false) sides in
  let mark codes =
    Array.iteri
      (fun s a -> Array.iteri (fun i code -> if code = 0 then nulls.(s).(i) <- true) a)
      codes
  in
  let acc = field 0 and acc_w = ref (comp_width comps.(0)) in
  mark acc;
  for c = 1 to Array.length comps - 1 do
    let codes = field c in
    mark codes;
    if !acc_w + comp_width comps.(c) > 63 then acc_w := densify acc;
    let w =
      if !acc_w + comp_width comps.(c) > 63 then densify codes else comp_width comps.(c)
    in
    Array.iter2 (fun a b -> Array.iteri (fun i x -> a.(i) <- (x lsl w) lor b.(i)) a) acc codes;
    acc_w := !acc_w + w
  done;
  Mdense
    { keys = acc; nulls = Array.map (fun f -> if Array.mem true f then Some f else None) nulls }

let of_columns sides =
  match sides with
  | [] -> None
  | first :: rest ->
    let k = Array.length first in
    if List.exists (fun s -> Array.length s <> k) rest then None
    else begin
      let sides = Array.of_list sides in
      if Array.exists (fun cols -> Array.exists (fun c -> not (Column.det c)) cols) sides
      then None
      else begin
        let comps =
          Array.init k (fun c ->
              classify_comp ~sole:(k = 1) (Array.map (fun cols -> cols.(c)) sides))
        in
        let total = Array.fold_left (fun a c -> a + comp_width c) 0 comps in
        let mode =
          match comps with
          | [| Craw |] -> Mraw
          | _ -> if total <= 63 then Mpacked else dense_mode sides comps
        in
        Some { sides; comps; mode }
      end
    end

(* --- encoding ------------------------------------------------------ *)

type coded = { keys : int array; null_rows : bool array option }

(* Whether a packed key has a field reading 0, the Null code. *)
let has_null comps key =
  let rec go c shift =
    c >= 0
    &&
    let w = comp_width comps.(c) in
    (key lsr shift) land ((1 lsl w) - 1) = 0 || go (c - 1) (shift + w)
  in
  go (Array.length comps - 1) 0

(* Rows per chunk of the packed fill: the pool hands out whole chunks,
   and each chunk runs the component loops over its own rows. *)
let chunk_rows = 4096

(* The codes, and whether [keys] was allocated by this call (so a caller
   may overwrite it) rather than shared with a column or the encoder. *)
let coded_rows ?pool t ~side ~rows:n =
  let cols = t.sides.(side) in
  match t.mode with
  | Mraw -> (
    match Column.source cols.(0) with
    | Column.Vint { data; _ }, None -> ({ keys = data; null_rows = None }, false)
    | Column.Vint { data; _ }, Some idx ->
      (* A view's keys are read through its index, and the view stays
         unread. *)
      let keys = Array.make (Array.length idx) 0 in
      for k = 0 to Array.length idx - 1 do
        Array.unsafe_set keys k data.(Array.unsafe_get idx k)
      done;
      ({ keys; null_rows = None }, true)
    | _ -> invalid_arg "Keycode: component/storage mismatch")
  | Mdense { keys; nulls } -> ({ keys = keys.(side); null_rows = nulls.(side) }, false)
  | Mpacked ->
    let srcs = Array.map Column.source cols in
    let out = Array.make n 0 in
    let chunks = (n + chunk_rows - 1) / chunk_rows in
    let saw_null = Array.make chunks false in
    Mde_par.Pool.iter ?pool ~site:"relational.keycode" chunks (fun b ->
        let lo = b * chunk_rows in
        let hi = min n (lo + chunk_rows) in
        Array.iteri
          (fun c comp -> if pack comp side srcs.(c) out lo hi then saw_null.(b) <- true)
          t.comps);
    let null_rows =
      if Array.mem true saw_null then Some (Array.map (has_null t.comps) out) else None
    in
    ({ keys = out; null_rows }, true)

let codes ?pool t ~side ~rows = fst (coded_rows ?pool t ~side ~rows)

let encode ?pool t ~side =
  let cols = t.sides.(side) in
  if Array.length cols = 0 then invalid_arg "Keycode.encode: empty key (use codes ~rows)";
  codes ?pool t ~side ~rows:(Column.rows cols.(0))

let groups ?pool cols ~rows =
  match of_columns [ cols ] with
  | None -> invalid_arg "Keycode.groups: uncertain key column"
  | Some t ->
    let { keys; _ }, fresh = coded_rows ?pool t ~side:0 ~rows in
    let tbl = tbl_create ~hint:(max 16 (rows / 8)) keys in
    (* Ids overwrite the packed keys in place when this call allocated
       them: row i's key is read before its id is written, and the table
       keeps its own copy of every key it has seen. *)
    let ids = if fresh then keys else Array.make rows 0 in
    tbl_add_rows tbl ~skip:None ids;
    let firsts = Array.make tbl.count 0 in
    for i = rows - 1 downto 0 do
      firsts.(ids.(i)) <- i
    done;
    (ids, firsts)

(* --- normalized sort keys ------------------------------------------ *)

(* A non-NaN float's order as an unsigned 64-bit word: the sign bit set
   on non-negatives, every bit flipped on negatives. *)
let[@inline] order_bits f =
  let b = Int64.bits_of_float (if f = 0. then 0. else f) in
  if Int64.compare b 0L >= 0 then Int64.logxor b Int64.min_int else Int64.lognot b

(* A column's order-preserving image under [Value.compare], as fields of
   at most 62 bits, most significant first. Null reads 0, below
   everything: ints offset by the scanned minimum (or, spanning more
   than 2^61, split unsigned halves of [v - min_int]), bools 0/1 after
   the null slot, strings by dictionary {e rank} under String.compare
   (equal strings on duplicate dictionary entries must get equal ranks,
   or the index tiebreak would be pre-empted by dictionary code order),
   floats as NaN below every number and then the sign-flipped bits of
   the number with [-0.] read as [0.]. *)
let sort_fields view =
  match view with
  | Column.Vint { data; nulls; _ } ->
    let mn, mx = int_range [ (data, None) ] in
    let span = mx - mn in
    let is_null = null_reader nulls in
    if span >= 0 && span <= (1 lsl 61) - 2 then
      [ (bits_for (span + 2), fun i -> if is_null i then 0 else data.(i) - mn + 1) ]
    else
      [ (1, fun i -> if is_null i then 0 else 1);
        (32, fun i -> if is_null i then 0 else (data.(i) - min_int) lsr 31);
        (31, fun i -> if is_null i then 0 else (data.(i) - min_int) land 0x7FFF_FFFF) ]
  | Column.Vbool { data; nulls; _ } ->
    let is_null = null_reader nulls in
    [ (2, fun i -> if is_null i then 0 else data.(i) + 1) ]
  | Column.Vstring { codes; dict; _ } ->
    let n_dict = Array.length dict in
    let order = Array.init n_dict Fun.id in
    Array.sort (fun a b -> String.compare dict.(a) dict.(b)) order;
    let ranks = Array.make n_dict 0 in
    let rank = ref (-1) in
    Array.iteri
      (fun pos code ->
        if pos = 0 || not (String.equal dict.(code) dict.(order.(pos - 1))) then
          incr rank;
        ranks.(code) <- !rank)
      order;
    [ ( bits_for (!rank + 2 + Bool.to_int (n_dict = 0)),
        fun i ->
          let c = codes.(i) in
          if c < 0 then 0 else ranks.(c) + 1 ) ]
  | Column.Vfloat { data; nulls; _ } ->
    let is_null = null_reader nulls in
    let number i = (not (is_null i)) && not (Float.is_nan (Array1.get data i)) in
    [ (2, fun i -> if is_null i then 0 else if number i then 2 else 1);
      ( 32,
        fun i ->
          if number i then
            Int64.to_int (Int64.shift_right_logical (order_bits (Array1.get data i)) 32)
          else 0 );
      ( 32,
        fun i ->
          if number i then Int64.to_int (Int64.logand (order_bits (Array1.get data i)) 0xFFFF_FFFFL)
          else 0 ) ]

(* Fields packed greedily into words of at most 62 bits, a field never
   straddling two: (width, reader) per word. *)
let pack_words fields =
  let word fs =
    let fs = Array.of_list (List.rev fs) in
    let k = Array.length fs in
    ( Array.fold_left (fun a (w, _) -> a + w) 0 fs,
      fun i ->
        let key = ref 0 in
        for c = 0 to k - 1 do
          let w, f = fs.(c) in
          key := (!key lsl w) lor f i
        done;
        !key )
  in
  let rec go words cur cur_w = function
    | [] -> List.rev (word cur :: words)
    | ((w, _) as f) :: rest ->
      if cur <> [] && cur_w + w > 62 then go (word cur :: words) [ f ] w rest
      else go words (f :: cur) (cur_w + w) rest
  in
  Array.of_list (go [] [] 0 fields)

let sort_perm ?(descending = false) cols ~n_rows =
  if Array.exists (fun c -> not (Column.det c)) cols then
    invalid_arg "Keycode.sort_perm: uncertain column";
  if n_rows <= 1 then Array.init n_rows Fun.id
  else begin
    let words =
      pack_words (List.concat_map (fun c -> sort_fields (Column.view c)) (Array.to_list cols))
    in
    let idx_bits = bits_for n_rows in
    match words with
    | [| (total, img) |] when total + idx_bits <= 62 ->
      (* Fully unboxed: key and tiebreak index share one word, so a
         flat monomorphic int sort gives the stable order. Descending
         complements the key image, never the index. *)
      let wmask = (1 lsl total) - 1 in
      let imask = (1 lsl idx_bits) - 1 in
      let arr =
        Array.init n_rows (fun i ->
            let v = img i in
            let v = if descending then v lxor wmask else v in
            (v lsl idx_bits) lor i)
      in
      Array.sort (fun (a : int) b -> Int.compare a b) arr;
      Array.map (fun packed -> packed land imask) arr
    | _ ->
      (* Word by word, then the row index. *)
      let nw = Array.length words in
      let imgs = Array.make (n_rows * nw) 0 in
      Array.iteri
        (fun w (_, img) ->
          for i = 0 to n_rows - 1 do
            imgs.((i * nw) + w) <- img i
          done)
        words;
      let perm = Array.init n_rows Fun.id in
      Array.sort
        (fun a b ->
          let c = ref 0 and w = ref 0 in
          while !c = 0 && !w < nw do
            c := Int.compare imgs.((a * nw) + !w) imgs.((b * nw) + !w);
            incr w
          done;
          let c = if descending then - !c else !c in
          if c <> 0 then c else Int.compare a b)
        perm;
      perm
  end
