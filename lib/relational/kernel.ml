(* Block kernels (the contract is in kernel.mli). A compiled node fills
   typed vectors at a block's selected positions, one loop per operator,
   and a predicate narrows the selection. Two shapes read column storage
   in place instead of through a vector: a comparison of an int, float
   or bool column with a literal narrows in one loop per block
   ([narrow_literal]), and an aggregate over a bare column leaf reads its
   cells through [slot] and [null] ([leaf_column], for [Aggregate]). *)

module Array1 = Bigarray.Array1
module Bitset = Column.Bitset

(* 256 slots: a vector of at most 256 words is allocated on the minor
   heap, so a sweep's scratch never reaches the major heap. *)
let block = 256

(* --- frames --------------------------------------------------------- *)

type selection = { pos : int array; mutable n : int }

type frame = {
  reps : int;  (* slots per row in this sweep *)
  rowix : int array;  (* row of each position of the block *)
  all : selection;  (* the block's initial selection *)
  mutable lo : int;  (* slot of position 0 *)
}

type 'a vec = { data : 'a; nulls : Bytes.t; fill : selection -> unit }

let cap f = Array.length f.rowix
let selection cap = { pos = Array.make cap 0; n = 0 }
let noop (_ : selection) = ()

let[@inline] is_null nul k = Bytes.length nul > 0 && Bytes.unsafe_get nul k <> '\000'

(* --- compiled nodes -------------------------------------------------- *)

(* One node's evaluator in one frame: [run s] fills the value vector of
   the node's kind ([iv] holds ints and 0/1 bools) and, when the node is
   nullable, [nul], at the positions [s] selects. Values at null
   positions are unspecified. *)
type inst = {
  run : selection -> unit;
  fv : float array;
  iv : int array;
  sv : string array;
  nul : Bytes.t;  (* empty when the node is never null *)
}

let inst ?(fv = [||]) ?(iv = [||]) ?(sv = [||]) ?(nul = Bytes.empty) run =
  { run; fv; iv; sv; nul }

(* A node's kind is the kind [Expr.type_of] gives its expression. *)
type kind = Value.ty = Tint | Tfloat | Tstring | Tbool

(* The vectors of a node of [kind] over [n] positions, with null flags
   [nul]. *)
let vectors kind ~nul n =
  inst
    ~fv:(if kind = Tfloat then Array.create_float n else [||])
    ~iv:(if kind = Tint || kind = Tbool then Array.make n 0 else [||])
    ~sv:(if kind = Tstring then Array.make n "" else [||])
    ~nul noop

(* An int, float or bool column's storage as a leaf reads it: slot [r]
   of [store], with row [r]'s null bit in [nulls] when deterministic.
   [ix] is an unread view's index ([direct]: none). *)
type store = Sfloat of Column.floats | Sint of int array | Sbool of int array

type column = {
  store : store;
  nulls : Bitset.t option;
  sdet : bool;
  direct : bool;
  ix : int array;
}

type node = {
  kind : kind;
  unc : bool;
  nullable : bool;
  make : frame -> inst;
  narrow : (frame -> selection * (selection -> unit)) option;
      (* a boolean node's own filter, when it beats value-then-compact *)
  operand : operand;
}

(* What a comparison may read in place instead of through [make]; a
   [Lit Null] operand marks a node whose every cell is Null. *)
and operand = Computed | Stored of column | Lit of Value.t

(* Named columns: the base columns, plus any definitions bound by name.
   A base column's node is built when an expression first references
   it; a deterministic leaf reads a view through its index, so only an
   uncertain column an expression reads is ever forced. *)
type env = { schema : Schema.t; names : (string, binding) Hashtbl.t }
and binding = Base of Column.t | Bound of node

let unc n = n.unc
let cnode kind ~unc ~nullable make = { kind; unc; nullable; make; narrow = None; operand = Computed }
let const kind make = cnode kind ~unc:false ~nullable:false (fun f -> make (cap f))

(* A node whose every cell is Null. Its kind is the one its context
   needs: an [If] branch takes the other branch's, and elsewhere it is
   bool, which a condition reads as false, a comparison as Null and
   [materialize] as its declared type. *)
let blank kind =
  {
    (cnode kind ~unc:false ~nullable:true (fun f -> vectors kind ~nul:(Bytes.make (cap f) '\001') (cap f)))
    with
    operand = Lit Value.Null;
  }

let is_blank n = match n.operand with Lit Value.Null -> true | Lit _ | Computed | Stored _ -> false
let kind n = if is_blank n then None else Some n.kind

(* --- column leaves --------------------------------------------------- *)

(* A column leaf reads, for position [k], slot [lo + k] of its storage
   in a sweep of the column's own geometry, or the position's row when a
   deterministic column meets a sweep of several repetitions. A
   deterministic column that is an unread view ([Column.source]) reads
   that row through the view's index [ix] instead, so an expression
   forces no view it reads. [slot] and [null] are that mapping, for the
   loops that read a column where it is stored. *)
let[@inline] slot c f k =
  let i = if c.sdet && f.reps > 1 then Array.unsafe_get f.rowix k else f.lo + k in
  if c.direct then i else Array.unsafe_get c.ix i

let[@inline] null c f k =
  match c.nulls with
  | None -> false
  | Some m ->
    if c.sdet then Bitset.get m (slot c f k) 0
    else
      let i = Array.unsafe_get f.rowix k in
      Bitset.get m i (f.lo + k - (i * f.reps))

let leaf_column n = match n.operand with Stored c -> Some c | Computed | Lit _ -> None

(* An int, float or bool leaf's value vector: each selected position's
   cell copied out, bools as 0/1. *)
let read_column kind c f =
  let n = cap f in
  let fv = if kind = Tfloat then Array.create_float n else [||]
  and iv = if kind = Tfloat then [||] else Array.make n 0
  and nul = if Option.is_none c.nulls then Bytes.empty else Bytes.make n '\000' in
  inst ~fv ~iv ~nul (fun s ->
      let pos = s.pos and rowix = f.rowix and lo = f.lo and by_row = c.sdet && f.reps > 1 in
      let direct = c.direct and ix = c.ix in
      (match c.store with
      | Sfloat data ->
        for j = 0 to s.n - 1 do
          let k = Array.unsafe_get pos j in
          let i = if by_row then Array.unsafe_get rowix k else lo + k in
          Array.unsafe_set fv k (Array1.unsafe_get data (if direct then i else Array.unsafe_get ix i))
        done
      | Sint data | Sbool data ->
        let bool = match c.store with Sbool _ -> true | Sint _ | Sfloat _ -> false in
        for j = 0 to s.n - 1 do
          let k = Array.unsafe_get pos j in
          let i = if by_row then Array.unsafe_get rowix k else lo + k in
          let x = Array.unsafe_get data (if direct then i else Array.unsafe_get ix i) in
          Array.unsafe_set iv k (if bool then Bool.to_int (x <> 0) else x)
        done);
      if Option.is_some c.nulls then
        for j = 0 to s.n - 1 do
          let k = Array.unsafe_get pos j in
          Bytes.unsafe_set nul k (if null c f k then '\001' else '\000')
        done)

(* The leaf of base column [name], declared [ty]: its storage holds
   cells of that kind. *)
let leaf name ty col =
  let stored = Column.storage_ty col in
  if stored <> ty then
    invalid_arg
      (Printf.sprintf "Kernel: column %S is declared %s but stores %s" name (Value.type_name ty)
         (Value.type_name stored));
  let det = Column.det col in
  let view, idx = if det then Column.source col else (Column.view col, None) in
  let direct = Option.is_none idx and ix = Option.value idx ~default:[||] in
  let typed kind store nulls =
    let c = { store; nulls; sdet = det; direct; ix } in
    let n = cnode kind ~unc:(not det) ~nullable:(Option.is_some nulls) (read_column kind c) in
    { n with operand = Stored c }
  in
  match view with
  | Column.Vfloat { data; nulls; _ } -> typed Tfloat (Sfloat data) nulls
  | Column.Vint { data; nulls; _ } -> typed Tint (Sint data) nulls
  | Column.Vbool { data; nulls; _ } -> typed Tbool (Sbool data) nulls
  | Column.Vstring { codes; dict; _ } ->
    cnode Tstring ~unc:(not det) ~nullable:true (fun f ->
        let sv = Array.make (cap f) "" and nul = Bytes.make (cap f) '\000' in
        inst ~sv ~nul (fun s ->
            let rowix = f.rowix and lo = f.lo and by_row = det && f.reps > 1 in
            for j = 0 to s.n - 1 do
              let k = Array.unsafe_get s.pos j in
              let i = if by_row then Array.unsafe_get rowix k else lo + k in
              let c = Array.unsafe_get codes (if direct then i else Array.unsafe_get ix i) in
              Bytes.unsafe_set nul k (if c < 0 then '\001' else '\000');
              Array.unsafe_set sv k (if c < 0 then "" else Array.unsafe_get dict c)
            done))

(* --- environments ---------------------------------------------------- *)

let env_of_columns schema columns =
  let names = Hashtbl.create (Array.length columns * 2) in
  List.iteri
    (fun j name -> Hashtbl.replace names name (Base columns.(j)))
    (Schema.column_names schema);
  { schema; names }

let env_extend env defs =
  let names = Hashtbl.copy env.names in
  List.iter (fun (name, node) -> Hashtbl.replace names name (Bound node)) defs;
  { env with names }

(* The column kinds [Expr.type_of] reads: a base column's declared
   type, a bound definition's kind. *)
let types env name =
  match Hashtbl.find env.names name with
  | Base _ -> Some (Schema.column_type env.schema name)
  | Bound n -> kind n

let lookup env name =
  match Hashtbl.find env.names name with
  | Bound n -> n
  | Base col ->
    let n = leaf name (Schema.column_type env.schema name) col in
    Hashtbl.replace env.names name (Bound n);
    n

(* --- operators ------------------------------------------------------- *)

(* Null flags of a binary node: those of its one nullable operand, shared,
   or the two merged. *)
let merged_nulls f x y =
  match (Bytes.length x.nul > 0, Bytes.length y.nul > 0) with
  | false, false -> (Bytes.empty, noop)
  | true, false -> (x.nul, noop)
  | false, true -> (y.nul, noop)
  | true, true ->
    let nul = Bytes.make (cap f) '\000' in
    ( nul,
      fun s ->
        for j = 0 to s.n - 1 do
          let k = Array.unsafe_get s.pos j in
          Bytes.unsafe_set nul k
            (if is_null x.nul k || is_null y.nul k then '\001' else '\000')
        done )

(* [Value.to_float]'s image of a numeric or boolean node. *)
let floated n =
  match n.kind with
  | Tint | Tbool ->
    {
      n with
      kind = Tfloat;
      narrow = None;
      operand = Computed;
      make =
        (fun f ->
          let x = n.make f and fv = Array.create_float (cap f) in
          {
            x with
            fv;
            run =
              (fun s ->
                x.run s;
                let pos = s.pos and xv = x.iv in
                for j = 0 to s.n - 1 do
                  let k = Array.unsafe_get pos j in
                  Array.unsafe_set fv k (float_of_int (Array.unsafe_get xv k))
                done);
          });
    }
  | Tfloat -> n
  | Tstring -> invalid_arg "Kernel.floats: a string node"

type arop = Add | Sub | Mul | Div

(* Int on two ints except for [/], float otherwise, as the interpreter's
   [arith]; Null when either operand is always Null. *)
let arith op a b =
  if is_blank a || is_blank b then blank Tbool
  else
    let int = a.kind = Tint && b.kind = Tint && op <> Div in
    let a, b = if int then (a, b) else (floated a, floated b) in
    cnode (if int then Tint else Tfloat) ~unc:(a.unc || b.unc)
      ~nullable:(a.nullable || b.nullable) (fun f ->
      let x = a.make f and y = b.make f in
      let iv = if int then Array.make (cap f) 0 else [||]
      and fv = if int then [||] else Array.create_float (cap f) in
      let nul, merge = merged_nulls f x y in
      inst ~iv ~fv ~nul (fun s ->
          x.run s;
          y.run s;
          let pos = s.pos in
          if int then begin
            let xv = x.iv and yv = y.iv in
            for j = 0 to s.n - 1 do
              let k = Array.unsafe_get pos j in
              let u = Array.unsafe_get xv k and v = Array.unsafe_get yv k in
              Array.unsafe_set iv k
                (match op with Add -> u + v | Sub -> u - v | Mul | Div -> u * v)
            done
          end
          else begin
            let xv = x.fv and yv = y.fv in
            for j = 0 to s.n - 1 do
              let k = Array.unsafe_get pos j in
              let u = Array.unsafe_get xv k and v = Array.unsafe_get yv k in
              Array.unsafe_set fv k
                (match op with Add -> u +. v | Sub -> u -. v | Mul -> u *. v | Div -> u /. v)
            done
          end;
          merge s))

(* [eval_bool] semantics: Null counts as false. *)
let[@inline] truthy x k = Array.unsafe_get x.iv k <> 0 && not (is_null x.nul k)

(* A node computed one position at a time from its operands' vectors:
   [cell xs y k] writes position [k] of [y], the node's own vectors (and
   its null flag when [nullable]). The operators off the hot paths. *)
let per_cell kind ~unc ~nullable parts cell =
  cnode kind ~unc ~nullable (fun f ->
      let xs = Array.of_list (List.map (fun p -> p.make f) parts) and n = cap f in
      let y = vectors kind ~nul:(if nullable then Bytes.make n '\000' else Bytes.empty) n in
      {
        y with
        run =
          (fun s ->
            Array.iter (fun x -> x.run s) xs;
            for j = 0 to s.n - 1 do
              cell xs y (Array.unsafe_get s.pos j)
            done);
      })

let set_bool y k b = Array.unsafe_set y.iv k (Bool.to_int b)

let copy_cell kind x y k =
  (match kind with
  | Tfloat -> Array.unsafe_set y.fv k (Array.unsafe_get x.fv k)
  | Tint | Tbool -> Array.unsafe_set y.iv k (Array.unsafe_get x.iv k)
  | Tstring -> Array.unsafe_set y.sv k (Array.unsafe_get x.sv k));
  if Bytes.length y.nul > 0 then
    Bytes.unsafe_set y.nul k (if is_null x.nul k then '\001' else '\000')

type cmpop = Ceq | Cne | Clt | Cle | Cgt | Cge

(* Whether an operator holds, as 0/1 at index [1 + sign] of a three-way
   comparison. *)
let outcomes op =
  Array.map Bool.to_int
    (match op with
    | Ceq -> [| false; true; false |]
    | Cne -> [| true; false; true |]
    | Clt -> [| true; false; false |]
    | Cle -> [| true; true; false |]
    | Cgt -> [| false; false; true |]
    | Cge -> [| false; true; true |])

(* [b op' a] holds exactly when [a op b] does. *)
let flip = function Clt -> Cgt | Cle -> Cge | Cgt -> Clt | Cge -> Cle | (Ceq | Cne) as op -> op

(* The narrowing loops of [column op literal]: each writes the positions
   of [s] where the operator holds to [opos], and returns their number.
   The compaction is branch-free. Against a literal [x] that is not NaN,
   [1 + Float.compare v x] is [(v >= x) + (v > x)] (a NaN cell is below
   [x] on both counts), and so is [1 + Int.compare v x] on ints: [tbl]
   is indexed by that sum. Cells are read where they are stored: at
   slot [lo + k] for position [k] when the column is built and matches
   the sweep's geometry, else at [slot]. *)
let keep_floats tbl (d : Column.floats) x c f (s : selection) opos =
  let pos = s.pos and m = ref 0 in
  if c.direct && not (c.sdet && f.reps > 1) then begin
    let lo = f.lo in
    for j = 0 to s.n - 1 do
      let k = Array.unsafe_get pos j in
      let v = Array1.unsafe_get d (lo + k) in
      Array.unsafe_set opos !m k;
      m := !m + Array.unsafe_get tbl (Bool.to_int (v >= x) + Bool.to_int (v > x))
    done
  end
  else
    for j = 0 to s.n - 1 do
      let k = Array.unsafe_get pos j in
      let v = Array1.unsafe_get d (slot c f k) in
      Array.unsafe_set opos !m k;
      m := !m + Array.unsafe_get tbl (Bool.to_int (v >= x) + Bool.to_int (v > x))
    done;
  !m

let keep_ints tbl (d : int array) x c f (s : selection) opos =
  let pos = s.pos and m = ref 0 in
  if c.direct && not (c.sdet && f.reps > 1) then begin
    let lo = f.lo in
    for j = 0 to s.n - 1 do
      let k = Array.unsafe_get pos j in
      let v = Array.unsafe_get d (lo + k) in
      Array.unsafe_set opos !m k;
      m := !m + Array.unsafe_get tbl (Bool.to_int (v >= x) + Bool.to_int (v > x))
    done
  end
  else
    for j = 0 to s.n - 1 do
      let k = Array.unsafe_get pos j in
      let v = Array.unsafe_get d (slot c f k) in
      Array.unsafe_set opos !m k;
      m := !m + Array.unsafe_get tbl (Bool.to_int (v >= x) + Bool.to_int (v > x))
    done;
  !m

(* Any column with Null cells, a bool column, or mixed kinds: [sign r]
   compares the cell at slot [r] with the literal. *)
let keep_signs tbl sign c f (s : selection) opos =
  let pos = s.pos and m = ref 0 in
  for j = 0 to s.n - 1 do
    let k = Array.unsafe_get pos j in
    Array.unsafe_set opos !m k;
    if not (null c f k) then m := !m + Array.unsafe_get tbl (1 + Int.compare (sign (slot c f k)) 0)
  done;
  !m

(* [column op literal] narrows in one loop per block: each selected
   position's cell is compared where it is stored, and the position is
   kept when the operator holds and the cell is not Null. That is
   [compare_node]'s outcome without its leaf copy, its comparison vector
   and its compaction pass. An int column meets a float literal, and the
   converse, through [Value.compare_int_float]. *)
let narrow_literal op c lit =
  let sign =
    match (c.store, lit) with
    | Sfloat d, Value.Float x -> Some (fun r -> Float.compare (Array1.unsafe_get d r) x)
    | Sint d, Value.Int x -> Some (fun r -> Int.compare (Array.unsafe_get d r) x)
    | Sbool d, Value.Bool x ->
      let x = Bool.to_int x in
      Some (fun r -> Int.compare (Bool.to_int (Array.unsafe_get d r <> 0)) x)
    | Sint d, Value.Float x -> Some (fun r -> Value.compare_int_float (Array.unsafe_get d r) x)
    | Sfloat d, Value.Int x -> Some (fun r -> -Value.compare_int_float x (Array1.unsafe_get d r))
    | (Sfloat _ | Sint _ | Sbool _), _ -> None
  in
  Option.map
    (fun sign f ->
      let tbl = outcomes op and out = selection (cap f) in
      ( out,
        fun s ->
          out.n <-
            (match (c.store, lit, c.nulls) with
            | Sfloat d, Value.Float x, None when not (Float.is_nan x) ->
              keep_floats tbl d x c f s out.pos
            | Sint d, Value.Int x, None -> keep_ints tbl d x c f s out.pos
            | _ -> keep_signs tbl sign c f s out.pos) ))
    sign

(* Three-way comparisons agree with [Value.compare] bit for bit: ints and
   bools as ints, floats by [Float.compare] (NaN below everything,
   [-0. = 0.]), mixed numerics exactly through
   [Value.compare_int_float], strings by [String.compare], and two kinds
   with no common order by their ranks, a constant. The operator is
   looked up by the sign; a comparison with a Null side is false, never
   Null. Int and float pairs get loops of their own, and a column
   compared with a literal narrows in place ([narrow_literal]). *)
let compare_node op a b =
  let tbl = outcomes op in
  let[@inline] outcome c = Array.unsafe_get tbl (1 + Int.compare c 0) in
  let unc = a.unc || b.unc in
  let typed loop =
    cnode Tbool ~unc ~nullable:false (fun f ->
        let x = a.make f and y = b.make f and iv = Array.make (cap f) 0 in
        let guarded = Bytes.length x.nul > 0 || Bytes.length y.nul > 0 in
        inst ~iv (fun s ->
            x.run s;
            y.run s;
            loop x y iv s;
            if guarded then
              for j = 0 to s.n - 1 do
                let k = Array.unsafe_get s.pos j in
                if is_null x.nul k || is_null y.nul k then Array.unsafe_set iv k 0
              done))
  in
  let generic three =
    per_cell Tbool ~unc ~nullable:false [ a; b ] (fun xs y k ->
        let x = xs.(0) and z = xs.(1) in
        set_bool y k
          ((not (is_null x.nul k || is_null z.nul k)) && outcome (three x z k) = 1))
  in
  if is_blank a || is_blank b then const Tbool (fun n -> inst ~iv:(Array.make n 0) noop)
  else
    let node =
      match (a.kind, b.kind) with
      | Tint, Tint | Tbool, Tbool ->
        typed (fun x y iv s ->
            let pos = s.pos and xv = x.iv and yv = y.iv in
            for j = 0 to s.n - 1 do
              let k = Array.unsafe_get pos j in
              Array.unsafe_set iv k
                (outcome (Int.compare (Array.unsafe_get xv k) (Array.unsafe_get yv k)))
            done)
      | Tfloat, Tfloat ->
        typed (fun x y iv s ->
            let pos = s.pos and xv = x.fv and yv = y.fv in
            for j = 0 to s.n - 1 do
              let k = Array.unsafe_get pos j in
              Array.unsafe_set iv k
                (outcome (Float.compare (Array.unsafe_get xv k) (Array.unsafe_get yv k)))
            done)
      | Tint, Tfloat -> generic (fun x z k -> Value.compare_int_float x.iv.(k) z.fv.(k))
      | Tfloat, Tint -> generic (fun x z k -> -Value.compare_int_float z.iv.(k) x.fv.(k))
      | Tstring, Tstring -> generic (fun x z k -> String.compare x.sv.(k) z.sv.(k))
      | (Tint | Tfloat | Tbool | Tstring), _ ->
        let sample = function
          | Tint -> Value.Int 0
          | Tfloat -> Value.Float 0.
          | Tbool -> Value.Bool false
          | Tstring -> Value.String ""
        in
        let rank = Value.compare (sample a.kind) (sample b.kind) in
        generic (fun _ _ _ -> rank)
    in
    let narrow =
      match (a.operand, b.operand) with
      | Stored c, Lit v -> narrow_literal op c v
      | Lit v, Stored c -> narrow_literal (flip op) c v
      | _ -> None
    in
    { node with narrow }

(* A boolean node's filter: the positions of [s] where it holds, in a
   selection the filter owns. *)
let narrow_bool f n =
  match n.narrow with
  | Some narrow -> narrow f
  | None ->
    let x = n.make f and out = selection (cap f) in
    ( out,
      fun s ->
        x.run s;
        (* Branch-free compaction: selectivity is data, not a pattern. *)
        let m = ref 0 and pos = s.pos and opos = out.pos and xv = x.iv and nul = x.nul in
        for j = 0 to s.n - 1 do
          let k = Array.unsafe_get pos j in
          Array.unsafe_set opos !m k;
          m := !m + (Array.unsafe_get xv k land Bool.to_int (not (is_null nul k)))
        done;
        out.n <- !m )

let logic ~conj a b =
  let node =
    per_cell Tbool ~unc:(a.unc || b.unc) ~nullable:false [ a; b ] (fun xs y k ->
        let u = truthy xs.(0) k and v = truthy xs.(1) k in
        set_bool y k (if conj then u && v else u || v))
  in
  if not conj then node
  else
    (* A conjunction narrows in turn: the right side sees only the rows
       the left kept. Compiled nodes never raise, so skipping work
       changes nothing observable. *)
    {
      node with
      narrow =
        Some
          (fun f ->
            let sa, ra = narrow_bool f a and sb, rb = narrow_bool f b in
            ( sb,
              fun s ->
                ra s;
                rb sa ));
    }

(* [Expr.type_of] has accepted [e], so every operand has the kind its
   operator needs. *)
let rec comp env (e : Expr.t) =
  match e with
  | Expr.Col name -> lookup env name
  | Expr.Lit Value.Null -> blank Tbool
  | Expr.Lit (Value.Int i as v) ->
    { (const Tint (fun n -> inst ~iv:(Array.make n i) noop)) with operand = Lit v }
  | Expr.Lit (Value.Float x as v) ->
    { (const Tfloat (fun n -> inst ~fv:(Array.make n x) noop)) with operand = Lit v }
  | Expr.Lit (Value.Bool b as v) ->
    { (const Tbool (fun n -> inst ~iv:(Array.make n (Bool.to_int b)) noop)) with operand = Lit v }
  | Expr.Lit (Value.String str) -> const Tstring (fun n -> inst ~sv:(Array.make n str) noop)
  | Expr.Add (a, b) -> binary env (arith Add) a b
  | Expr.Sub (a, b) -> binary env (arith Sub) a b
  | Expr.Mul (a, b) -> binary env (arith Mul) a b
  | Expr.Div (a, b) -> binary env (arith Div) a b
  | Expr.Neg a ->
    let a = comp env a in
    if is_blank a then a
    else
      per_cell a.kind ~unc:a.unc ~nullable:a.nullable [ a ] (fun xs y k ->
          let x = xs.(0) in
          copy_cell a.kind x y k;
          if a.kind = Tint then y.iv.(k) <- 0 - x.iv.(k) else y.fv.(k) <- -.x.fv.(k))
  | Expr.Eq (a, b) -> binary env (compare_node Ceq) a b
  | Expr.Ne (a, b) -> binary env (compare_node Cne) a b
  | Expr.Lt (a, b) -> binary env (compare_node Clt) a b
  | Expr.Le (a, b) -> binary env (compare_node Cle) a b
  | Expr.Gt (a, b) -> binary env (compare_node Cgt) a b
  | Expr.Ge (a, b) -> binary env (compare_node Cge) a b
  | Expr.And (a, b) -> binary env (logic ~conj:true) a b
  | Expr.Or (a, b) -> binary env (logic ~conj:false) a b
  | Expr.Not a ->
    let a = comp env a in
    per_cell Tbool ~unc:a.unc ~nullable:false [ a ] (fun xs y k ->
        set_bool y k (not (truthy xs.(0) k)))
  | Expr.Is_null a ->
    let a = comp env a in
    per_cell Tbool ~unc:a.unc ~nullable:false [ a ] (fun xs y k ->
        set_bool y k (is_null xs.(0).nul k))
  | Expr.If (c, t, e) ->
    let c = comp env c in
    let t = comp env t in
    let e = comp env e in
    if is_blank t && is_blank e then t
    else
      (* A branch that is always Null takes the other's kind. *)
      let t = if is_blank t then blank e.kind else t in
      let e = if is_blank e then blank t.kind else e in
      per_cell t.kind ~unc:(c.unc || t.unc || e.unc) ~nullable:(t.nullable || e.nullable)
        [ c; t; e ] (fun xs y k ->
          copy_cell t.kind (if truthy xs.(0) k then xs.(1) else xs.(2)) y k)

and binary env build a b =
  let a = comp env a in
  build a (comp env b)

let compile env e =
  let ty = Expr.type_of (types env) e in
  let n = comp env e in
  assert (kind n = ty);
  n

let compile_as env ty e =
  let n = compile env e in
  Expr.expect [ ty ] e (kind n);
  n

(* --- per-frame views -------------------------------------------------- *)

let filter n f =
  if n.kind <> Tbool then invalid_arg "Kernel.filter: a non-boolean node";
  narrow_bool f n

let floats n f =
  let x = (floated n).make f in
  { data = x.fv; nulls = x.nul; fill = x.run }

(* --- sweeps ---------------------------------------------------------- *)

let sweep ?pool ~site ?presence ~rows ~reps body =
  let per = max 1 (block / reps) in
  let blocks = (rows + per - 1) / per in
  let frame () =
    let cap = min rows per * reps in
    let pos = Array.make cap 0 in
    for k = 0 to cap - 1 do
      Array.unsafe_set pos k k
    done;
    let f = { reps; rowix = Array.make cap 0; all = { pos; n = 0 }; lo = 0 } in
    let eval, consume = body f in
    (f, eval, consume)
  in
  let load f b =
    let r0 = b * per in
    let r1 = min rows (r0 + per) in
    f.lo <- r0 * reps;
    let rowix = f.rowix and m = ref 0 in
    if reps = 1 then
      for i = r0 to r1 - 1 do
        Array.unsafe_set rowix (i - r0) i
      done
    else
      for i = r0 to r1 - 1 do
        for k = (i - r0) * reps to ((i - r0 + 1) * reps) - 1 do
          Array.unsafe_set rowix k i
        done
      done;
    Option.iter
      (fun p ->
        for i = r0 to r1 - 1 do
          m := Bitset.row_positions p i ~base:((i - r0) * reps) f.all.pos !m
        done)
      presence;
    f.all.n <- (match presence with None -> (r1 - r0) * reps | Some _ -> !m)
  in
  match pool with
  | Some p when Mde_par.Pool.domains p > 1 && blocks > 1 ->
    (* Waves of blocks: each frame evaluates one block on the pool, then
       the frames are consumed in block order on the caller. *)
    let frames = Array.init (min blocks (8 * Mde_par.Pool.domains p)) (fun _ -> frame ()) in
    let b = ref 0 in
    while !b < blocks do
      let b0 = !b in
      let m = min (Array.length frames) (blocks - b0) in
      Mde_par.Pool.parallel_iter p ~site ~chunk:1 m (fun c ->
          let f, eval, _ = frames.(c) in
          load f (b0 + c);
          eval ());
      for c = 0 to m - 1 do
        let _, _, consume = frames.(c) in
        consume ()
      done;
      b := b0 + m
    done
  | _ ->
    if blocks > 0 then begin
      let f, eval, consume = frame () in
      for b = 0 to blocks - 1 do
        load f b;
        eval ();
        consume ()
      done
    end

(* --- materialization ------------------------------------------------- *)

let materialize ?pool ~ty ~rows ~reps node =
  let det = not node.unc in
  let geo = if det then 1 else reps in
  let nslots = rows * geo in
  (* [write slot k x] copies position [k]'s value out, in slot order. *)
  let run write =
    sweep ?pool ~site:"kernel.materialize" ~rows ~reps:geo (fun f ->
        let x = node.make f in
        ( (fun () -> x.run f.all),
          fun () ->
            for k = 0 to f.all.n - 1 do
              write f x k (f.lo + k)
            done ))
  in
  let mask nullable = if nullable then Some (Bitset.create ~rows ~reps:geo false) else None in
  let set_null m f k s =
    let i = f.rowix.(k) in
    Bitset.set (Option.get m) i (s - (i * geo))
  in
  if is_blank node then Column.of_det_cells ~ty ~rows ~reps (fun _ -> Value.Null)
  else
    match node.kind with
    | Tint | Tfloat | Tbool ->
      (* Nulls go to the mask, and floats read [nan] under them. *)
      let float = node.kind = Tfloat and nulls = mask node.nullable in
      let fdata = Array1.create Bigarray.float64 Bigarray.c_layout (if float then nslots else 0)
      and idata = Array.make (if float then 0 else nslots) 0 in
      run (fun f x k s ->
          if is_null x.nul k then begin
            if float then Array1.set fdata s nan;
            set_null nulls f k s
          end
          else if float then Array1.set fdata s x.fv.(k)
          else idata.(s) <- x.iv.(k));
      if float then Column.of_floats ~det ~reps ?nulls fdata
      else if node.kind = Tint then Column.of_ints ~det ~reps ?nulls idata
      else Column.of_bools ~det ~reps ?nulls idata
    | Tstring ->
      (* Strings go to the typed builder, which dictionary-codes them; a
         column of one repetition is deterministic, and an uncertain one
         whose rows agree across repetitions is stored so, as
         [Column.of_cells] stores it. *)
      let b = Column.builder ~ty:Tstring ~det:(det || reps = 1) ~reps ~rows in
      run (fun _ x k _ ->
          Column.push b (if is_null x.nul k then Value.Null else Value.String x.sv.(k)));
      let col = Column.finish b in
      if det then col else Column.of_realizations ~ty:Tstring [| col |]
