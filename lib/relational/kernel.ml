module Array1 = Bigarray.Array1
module Bitset = Column.Bitset

(* A shared physical constant for "never null", so combinators can skip
   the null check entirely when both operands are non-nullable. *)
let no_null : int -> int -> bool = fun _ _ -> false

let or_null a b =
  if a == no_null then b
  else if b == no_null then a
  else fun i r -> a i r || b i r

type node =
  | Nint of { geti : int -> int -> int; inull : int -> int -> bool; iunc : bool }
  | Nfloat of { getf : int -> int -> float; fnull : int -> int -> bool; func : bool }
  | Nbool of { getb : int -> int -> bool; bnull : int -> int -> bool; bunc : bool }
  | Nstr of { gets : int -> int -> string; snull : int -> int -> bool; sunc : bool }

let node_unc = function
  | Nint x -> x.iunc
  | Nfloat x -> x.func
  | Nbool x -> x.bunc
  | Nstr x -> x.sunc

let node_null = function
  | Nint x -> x.inull
  | Nfloat x -> x.fnull
  | Nbool x -> x.bnull
  | Nstr x -> x.snull

let node_value n i r =
  match n with
  | Nint x -> if x.inull i r then Value.Null else Value.Int (x.geti i r)
  | Nfloat x -> if x.fnull i r then Value.Null else Value.Float (x.getf i r)
  | Nbool x -> if x.bnull i r then Value.Null else Value.Bool (x.getb i r)
  | Nstr x -> if x.snull i r then Value.Null else Value.String (x.gets i r)

(* --- environments -------------------------------------------------- *)

(* A name is bound to its column until an expression first references
   it; the column's node (which forces a view) is then built and kept.
   Compilation runs on the calling domain, so the table needs no lock. *)
type binding = Base of Column.t | Compiled of node option

type env = { reps : int; nodes : (string, binding) Hashtbl.t }

let null_getter ~vdet nulls =
  match nulls with
  | None -> no_null
  | Some m -> if vdet then fun i _ -> Bitset.get m i 0 else fun i r -> Bitset.get m i r

let node_of_column ~reps col =
  match Column.view col with
  | Column.Vfloat { vdet; data; nulls } ->
    let getf =
      if vdet then fun i _ -> Array1.unsafe_get data i
      else fun i r -> Array1.unsafe_get data ((i * reps) + r)
    in
    Some (Nfloat { getf; fnull = null_getter ~vdet nulls; func = not vdet })
  | Column.Vint { vdet; data; nulls } ->
    let geti =
      if vdet then fun i _ -> Array.unsafe_get data i
      else fun i r -> Array.unsafe_get data ((i * reps) + r)
    in
    Some (Nint { geti; inull = null_getter ~vdet nulls; iunc = not vdet })
  | Column.Vbool { vdet; data; nulls } ->
    let getb =
      if vdet then fun i _ -> Array.unsafe_get data i <> 0
      else fun i r -> Array.unsafe_get data ((i * reps) + r) <> 0
    in
    Some (Nbool { getb; bnull = null_getter ~vdet nulls; bunc = not vdet })
  | Column.Vstring { vdet; codes; dict } ->
    let code =
      if vdet then fun i _ -> Array.unsafe_get codes i
      else fun i r -> Array.unsafe_get codes ((i * reps) + r)
    in
    (* The value closure is only consulted when non-null, but return a
       dummy rather than trap if a caller strays. *)
    let gets i r =
      let c = code i r in
      if c < 0 then "" else Array.unsafe_get dict c
    in
    Some (Nstr { gets; snull = (fun i r -> code i r < 0); sunc = not vdet })
  | Column.Vvalues _ -> None

let env_of_columns schema ~reps columns =
  let nodes = Hashtbl.create (Array.length columns * 2) in
  List.iteri
    (fun j name -> Hashtbl.replace nodes name (Base columns.(j)))
    (Schema.column_names schema);
  { reps; nodes }

let env_extend env defs =
  let nodes = Hashtbl.copy env.nodes in
  List.iter (fun (name, node) -> Hashtbl.replace nodes name (Compiled (Some node))) defs;
  { env with nodes }

let lookup env name =
  match Hashtbl.find_opt env.nodes name with
  | None -> None
  | Some (Compiled n) -> n
  | Some (Base col) ->
    let n = node_of_column ~reps:env.reps col in
    Hashtbl.replace env.nodes name (Compiled n);
    n

(* --- compilation --------------------------------------------------- *)

let as_float_get = function
  | Nint x ->
    let g = x.geti in
    fun i r -> float_of_int (g i r)
  | Nfloat x -> x.getf
  | Nbool _ | Nstr _ -> assert false

(* Null-guarded boolean: comparisons yield false (not Null) when either
   side is Null, per [Expr.compare_values]. *)
let guard2 n1 n2 f =
  if n1 == no_null && n2 == no_null then f
  else fun i r -> if n1 i r || n2 i r then false else f i r

(* [eval_bool] semantics: Null counts as false. *)
let effective_bool x =
  match x with
  | Nbool b -> if b.bnull == no_null then b.getb else fun i r -> (not (b.bnull i r)) && b.getb i r
  | Nint _ | Nfloat _ | Nstr _ -> assert false

type cmpop = Ceq | Cne | Clt | Cle | Cgt | Cge

let int_cmp = function
  | Ceq -> fun (x : int) y -> x = y
  | Cne -> fun (x : int) y -> x <> y
  | Clt -> fun (x : int) y -> x < y
  | Cle -> fun (x : int) y -> x <= y
  | Cgt -> fun (x : int) y -> x > y
  | Cge -> fun (x : int) y -> x >= y

(* Total-order float comparison — [Value.compare] goes through
   [Float.compare], so NaN sorts below everything and [-0. = 0.]; the
   compiled path must agree bit for bit, hence no IEEE [<]. *)
let float_cmp = function
  | Ceq -> fun x y -> Float.compare x y = 0
  | Cne -> fun x y -> Float.compare x y <> 0
  | Clt -> fun x y -> Float.compare x y < 0
  | Cle -> fun x y -> Float.compare x y <= 0
  | Cgt -> fun x y -> Float.compare x y > 0
  | Cge -> fun x y -> Float.compare x y >= 0

(* An operator applied to a three-way comparison's sign: the mixed
   int/float arms compare exactly, through [Value.compare_int_float]. *)
let sign_cmp = function
  | Ceq -> fun c -> c = 0
  | Cne -> fun c -> c <> 0
  | Clt -> fun c -> c < 0
  | Cle -> fun c -> c <= 0
  | Cgt -> fun c -> c > 0
  | Cge -> fun c -> c >= 0

let str_cmp = function
  | Ceq -> fun x y -> String.compare x y = 0
  | Cne -> fun x y -> String.compare x y <> 0
  | Clt -> fun x y -> String.compare x y < 0
  | Cle -> fun x y -> String.compare x y <= 0
  | Cgt -> fun x y -> String.compare x y > 0
  | Cge -> fun x y -> String.compare x y >= 0

let bool_cmp = function
  | Ceq -> fun (x : bool) y -> x = y
  | Cne -> fun (x : bool) y -> x <> y
  | Clt -> fun x y -> Bool.compare x y < 0
  | Cle -> fun x y -> Bool.compare x y <= 0
  | Cgt -> fun x y -> Bool.compare x y > 0
  | Cge -> fun x y -> Bool.compare x y >= 0

let rec compile env expr =
  match (expr : Expr.t) with
  | Expr.Col name -> lookup env name
  | Expr.Lit (Value.Int i) ->
    Some (Nint { geti = (fun _ _ -> i); inull = no_null; iunc = false })
  | Expr.Lit (Value.Float f) ->
    Some (Nfloat { getf = (fun _ _ -> f); fnull = no_null; func = false })
  | Expr.Lit (Value.Bool b) ->
    Some (Nbool { getb = (fun _ _ -> b); bnull = no_null; bunc = false })
  | Expr.Lit (Value.String s) ->
    Some (Nstr { gets = (fun _ _ -> s); snull = no_null; sunc = false })
  | Expr.Lit Value.Null -> None
  | Expr.Add (a, b) -> arith env ( + ) ( +. ) a b
  | Expr.Sub (a, b) -> arith env ( - ) ( -. ) a b
  | Expr.Mul (a, b) -> arith env ( * ) ( *. ) a b
  | Expr.Div (a, b) -> begin
    match (compile env a, compile env b) with
    | Some ((Nint _ | Nfloat _) as x), Some ((Nint _ | Nfloat _) as y) ->
      let fx = as_float_get x and fy = as_float_get y in
      Some
        (Nfloat
           {
             getf = (fun i r -> fx i r /. fy i r);
             fnull = or_null (node_null x) (node_null y);
             func = node_unc x || node_unc y;
           })
    | _ -> None
  end
  | Expr.Neg a -> begin
    match compile env a with
    | Some (Nint x) ->
      let g = x.geti in
      Some (Nint { x with geti = (fun i r -> 0 - g i r) })
    | Some (Nfloat x) ->
      let g = x.getf in
      Some (Nfloat { x with getf = (fun i r -> -.(g i r)) })
    | _ -> None
  end
  | Expr.Eq (a, b) -> cmp env Ceq a b
  | Expr.Ne (a, b) -> cmp env Cne a b
  | Expr.Lt (a, b) -> cmp env Clt a b
  | Expr.Le (a, b) -> cmp env Cle a b
  | Expr.Gt (a, b) -> cmp env Cgt a b
  | Expr.Ge (a, b) -> cmp env Cge a b
  | Expr.And (a, b) -> logic env (fun ea eb i r -> ea i r && eb i r) a b
  | Expr.Or (a, b) -> logic env (fun ea eb i r -> ea i r || eb i r) a b
  | Expr.Not a -> begin
    match compile env a with
    | Some (Nbool _ as x) ->
      let e = effective_bool x in
      Some
        (Nbool { getb = (fun i r -> not (e i r)); bnull = no_null; bunc = node_unc x })
    | _ -> None
  end
  | Expr.Is_null a -> begin
    match compile env a with
    | Some x ->
      Some (Nbool { getb = node_null x; bnull = no_null; bunc = node_unc x })
    | None -> None
  end
  | Expr.If (c, t, e) -> begin
    match (compile env c, compile env t, compile env e) with
    | Some (Nbool _ as cn), Some tn, Some en ->
      let cond = effective_bool cn in
      let unc = node_unc cn || node_unc tn || node_unc en in
      let branch_null nt ne =
        if nt == no_null && ne == no_null then no_null
        else fun i r -> if cond i r then nt i r else ne i r
      in
      begin
        match (tn, en) with
        | Nint t', Nint e' ->
          let gt = t'.geti and ge = e'.geti in
          Some
            (Nint
               {
                 geti = (fun i r -> if cond i r then gt i r else ge i r);
                 inull = branch_null t'.inull e'.inull;
                 iunc = unc;
               })
        | Nfloat t', Nfloat e' ->
          let gt = t'.getf and ge = e'.getf in
          Some
            (Nfloat
               {
                 getf = (fun i r -> if cond i r then gt i r else ge i r);
                 fnull = branch_null t'.fnull e'.fnull;
                 func = unc;
               })
        | Nbool t', Nbool e' ->
          let gt = t'.getb and ge = e'.getb in
          Some
            (Nbool
               {
                 getb = (fun i r -> if cond i r then gt i r else ge i r);
                 bnull = branch_null t'.bnull e'.bnull;
                 bunc = unc;
               })
        | Nstr t', Nstr e' ->
          let gt = t'.gets and ge = e'.gets in
          Some
            (Nstr
               {
                 gets = (fun i r -> if cond i r then gt i r else ge i r);
                 snull = branch_null t'.snull e'.snull;
                 sunc = unc;
               })
        | _ -> None (* mixed-kind branches: rep-dependent result type *)
      end
    | _ -> None
  end

and arith env fi ff a b =
  match (compile env a, compile env b) with
  | Some (Nint x), Some (Nint y) ->
    let gx = x.geti and gy = y.geti in
    Some
      (Nint
         {
           geti = (fun i r -> fi (gx i r) (gy i r));
           inull = or_null x.inull y.inull;
           iunc = x.iunc || y.iunc;
         })
  | Some ((Nint _ | Nfloat _) as x), Some ((Nint _ | Nfloat _) as y) ->
    let fx = as_float_get x and fy = as_float_get y in
    Some
      (Nfloat
         {
           getf = (fun i r -> ff (fx i r) (fy i r));
           fnull = or_null (node_null x) (node_null y);
           func = node_unc x || node_unc y;
         })
  | _ -> None

and cmp env cop a b =
  match (compile env a, compile env b) with
  | Some (Nint x), Some (Nint y) ->
    let op = int_cmp cop in
    let gx = x.geti and gy = y.geti in
    Some
      (Nbool
         {
           getb = guard2 x.inull y.inull (fun i r -> op (gx i r) (gy i r));
           bnull = no_null;
           bunc = x.iunc || y.iunc;
         })
  | Some ((Nint _ | Nfloat _) as x), Some ((Nint _ | Nfloat _) as y) ->
    let test =
      match (x, y) with
      | Nint a, Nfloat b ->
        let op = sign_cmp cop and gx = a.geti and gy = b.getf in
        fun i r -> op (Value.compare_int_float (gx i r) (gy i r))
      | Nfloat a, Nint b ->
        let op = sign_cmp cop and gx = a.getf and gy = b.geti in
        fun i r -> op (-Value.compare_int_float (gy i r) (gx i r))
      | _ ->
        let op = float_cmp cop in
        let fx = as_float_get x and fy = as_float_get y in
        fun i r -> op (fx i r) (fy i r)
    in
    Some
      (Nbool
         {
           getb = guard2 (node_null x) (node_null y) test;
           bnull = no_null;
           bunc = node_unc x || node_unc y;
         })
  | Some (Nstr x), Some (Nstr y) ->
    let op = str_cmp cop in
    let gx = x.gets and gy = y.gets in
    Some
      (Nbool
         {
           getb = guard2 x.snull y.snull (fun i r -> op (gx i r) (gy i r));
           bnull = no_null;
           bunc = x.sunc || y.sunc;
         })
  | Some (Nbool x), Some (Nbool y) ->
    let op = bool_cmp cop in
    let gx = x.getb and gy = y.getb in
    Some
      (Nbool
         {
           getb = guard2 x.bnull y.bnull (fun i r -> op (gx i r) (gy i r));
           bnull = no_null;
           bunc = x.bunc || y.bunc;
         })
  | _ -> None (* cross-kind comparison: rank order, left to the interpreter *)

and logic env combine a b =
  match (compile env a, compile env b) with
  | Some (Nbool _ as x), Some (Nbool _ as y) ->
    let ea = effective_bool x and eb = effective_bool y in
    Some
      (Nbool
         { getb = combine ea eb; bnull = no_null; bunc = node_unc x || node_unc y })
  | _ -> None

(* --- consumers ----------------------------------------------------- *)

let as_pred = function
  | Nbool _ as x -> Some (effective_bool x)
  | Nint _ | Nfloat _ | Nstr _ -> None

type cell = {
  value : int -> int -> float;
  null : int -> int -> bool;
  cell_unc : bool;
}

let as_float_cell = function
  | Nfloat x -> Some { value = x.getf; null = x.fnull; cell_unc = x.func }
  | Nint x ->
    let g = x.geti in
    Some { value = (fun i r -> float_of_int (g i r)); null = x.inull; cell_unc = x.iunc }
  | Nbool x ->
    let g = x.getb in
    Some
      {
        value = (fun i r -> if g i r then 1. else 0.);
        null = x.bnull;
        cell_unc = x.bunc;
      }
  | Nstr _ -> None

(* --- materialization ----------------------------------------------- *)

(* Row-chunked fill: the pool chunks contiguously and each row's slots
   (and null-mask bytes) are disjoint across rows, so the parallel fill
   writes exactly the bytes the sequential one would. [Pool.iter] is the
   no-result fan-out — nothing is allocated to drive the side effects. *)
let fill_rows ?pool rows f = Mde_par.Pool.iter ?pool ~site:"bundle.materialize" rows f

let materialize ?pool ~rows ~reps node =
  let det = not (node_unc node) in
  let nslots = rows * if det then 1 else reps in
  let nulls_of getn =
    if getn == no_null then None
    else Some (Bitset.create ~rows ~reps:(if det then 1 else reps) false)
  in
  let each_slot i f =
    if det then f 0 i else for r = 0 to reps - 1 do f r ((i * reps) + r) done
  in
  let record_null mask i r = Bitset.set mask i (if det then 0 else r) in
  match node with
  | Nfloat x ->
    let data = Array1.create Bigarray.float64 Bigarray.c_layout nslots in
    let nulls = nulls_of x.fnull in
    fill_rows ?pool rows (fun i ->
        each_slot i (fun r s ->
            if x.fnull i r then begin
              Array1.set data s nan;
              record_null (Option.get nulls) i r
            end
            else Array1.set data s (x.getf i r)));
    Column.of_floats ~det ~reps ?nulls data
  | Nint x ->
    let data = Array.make nslots 0 in
    let nulls = nulls_of x.inull in
    fill_rows ?pool rows (fun i ->
        each_slot i (fun r s ->
            if x.inull i r then record_null (Option.get nulls) i r
            else data.(s) <- x.geti i r));
    Column.of_ints ~det ~reps ?nulls data
  | Nbool x ->
    let data = Array.make nslots 0 in
    let nulls = nulls_of x.bnull in
    fill_rows ?pool rows (fun i ->
        each_slot i (fun r s ->
            if x.bnull i r then record_null (Option.get nulls) i r
            else data.(s) <- Bool.to_int (x.getb i r)));
    Column.of_bools ~det ~reps ?nulls data
  | Nstr x ->
    (* Dictionary construction is stateful; fill sequentially. *)
    let codes = Array.make nslots (-1) in
    let table : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let rev = ref [] and next = ref 0 in
    for i = 0 to rows - 1 do
      each_slot i (fun r s ->
          if not (x.snull i r) then begin
            let str = x.gets i r in
            codes.(s) <-
              (match Hashtbl.find_opt table str with
              | Some c -> c
              | None ->
                let c = !next in
                incr next;
                Hashtbl.add table str c;
                rev := str :: !rev;
                c)
          end)
    done;
    Column.of_codes ~det ~reps ~dict:(Array.of_list (List.rev !rev)) codes
