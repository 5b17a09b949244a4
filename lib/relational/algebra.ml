(* Each operator types its expressions before reading a row, by the
   rule the columnar engine binds with ([Expr.type_of]). *)
let types schema name = Some (Schema.column_type schema name)
let check schema ty e = Expr.expect [ ty ] e (Expr.type_of (types schema) e)

let select pred table =
  let schema = Table.schema table in
  check schema Value.Tbool pred;
  let keep = Array.of_list
      (Array.fold_right
         (fun row acc -> if Expr.eval_bool schema row pred then row :: acc else acc)
         (Table.rows table) [])
  in
  Table.of_rows schema keep

let project names table =
  let schema = Table.schema table in
  let idxs = List.map (Schema.column_index schema) names in
  let out_schema = Schema.project schema names in
  let rows =
    Array.map
      (fun row -> Array.of_list (List.map (fun i -> row.(i)) idxs))
      (Table.rows table)
  in
  Table.of_rows out_schema rows

let extend defs table =
  let schema = Table.schema table in
  let added = Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) defs) in
  List.iter (fun (_, ty, e) -> check schema ty e) defs;
  let out_schema = Schema.concat schema added in
  let exprs = Array.of_list (List.map (fun (_, _, e) -> e) defs) in
  let rows =
    Array.map
      (fun row ->
        Array.append row (Array.map (fun e -> Expr.eval schema row e) exprs))
      (Table.rows table)
  in
  Table.of_rows out_schema rows

let rename renames table =
  Table.of_rows (Schema.rename (Table.schema table) renames) (Table.rows table)

type join_kind = Inner | Left

let equi_join ?(kind = Inner) ~on left right =
  let ls = Table.schema left and rs = Table.schema right in
  let out_schema = Schema.concat ls rs in
  let l_idx = List.map (fun (l, _) -> Schema.column_index ls l) on in
  let r_idx = List.map (fun (_, r) -> Schema.column_index rs r) on in
  let key_of idxs row = List.map (fun i -> row.(i)) idxs in
  (* Build a hash table over the right (build) side. [Value.Tbl] keys
     the probe by [Value.equal]/[Value.hash], so NaN keys match
     themselves and Int/Float keys match numerically — the structural
     Hashtbl this replaced silently dropped both. *)
  let build = Value.Tbl.create (max 16 (Table.cardinality right)) in
  Array.iter
    (fun row ->
      let key = key_of r_idx row in
      if not (List.exists Value.is_null key) then
        Value.Tbl.add build key row)
    (Table.rows right);
  let null_pad = Array.make (Schema.arity rs) Value.Null in
  let out = ref [] in
  Array.iter
    (fun lrow ->
      let key = key_of l_idx lrow in
      let matches =
        if List.exists Value.is_null key then []
        else Value.Tbl.find_all build key
      in
      match (matches, kind) with
      | [], Inner -> ()
      | [], Left -> out := Array.append lrow null_pad :: !out
      | matches, (Inner | Left) ->
        (* find_all returns most-recent first; restore build order. *)
        List.iter
          (fun rrow -> out := Array.append lrow rrow :: !out)
          (List.rev matches))
    (Table.rows left);
  Table.of_rows out_schema (Array.of_list (List.rev !out))

let theta_join ~on left right =
  let out_schema = Schema.concat (Table.schema left) (Table.schema right) in
  check out_schema Value.Tbool on;
  let out = ref [] in
  Array.iter
    (fun lrow ->
      Array.iter
        (fun rrow ->
          let combined = Array.append lrow rrow in
          if Expr.eval_bool out_schema combined on then out := combined :: !out)
        (Table.rows right))
    (Table.rows left);
  Table.of_rows out_schema (Array.of_list (List.rev !out))

let key_membership ~on left right =
  let ls = Table.schema left and rs = Table.schema right in
  let l_idx = List.map (fun (l, _) -> Schema.column_index ls l) on in
  let r_idx = List.map (fun (_, r) -> Schema.column_index rs r) on in
  let members = Value.Tbl.create (max 16 (Table.cardinality right)) in
  Array.iter
    (fun row ->
      let key = List.map (fun i -> row.(i)) r_idx in
      if not (List.exists Value.is_null key) then Value.Tbl.replace members key ())
    (Table.rows right);
  fun lrow ->
    let key = List.map (fun i -> lrow.(i)) l_idx in
    (not (List.exists Value.is_null key)) && Value.Tbl.mem members key

let semi_join ~on left right =
  let matches = key_membership ~on left right in
  Table.of_rows (Table.schema left)
    (Array.of_list
       (Array.fold_right
          (fun row acc -> if matches row then row :: acc else acc)
          (Table.rows left) []))

let anti_join ~on left right =
  let matches = key_membership ~on left right in
  Table.of_rows (Table.schema left)
    (Array.of_list
       (Array.fold_right
          (fun row acc -> if matches row then acc else row :: acc)
          (Table.rows left) []))

type aggregate = Aggregate.t =
  | Count
  | Count_if of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Std of Expr.t

(* Per-group accumulator state for one aggregate. *)
type acc = {
  mutable count : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable vmin : Value.t;
  mutable vmax : Value.t;
}

let fresh_acc () =
  { count = 0; sum = 0.; sum_sq = 0.; vmin = Value.Null; vmax = Value.Null }

let feed_acc agg schema row acc =
  let feed_numeric e =
    match Expr.eval schema row e with
    | Value.Null -> ()
    | v ->
      let x = Value.to_float v in
      acc.count <- acc.count + 1;
      acc.sum <- acc.sum +. x;
      acc.sum_sq <- acc.sum_sq +. (x *. x);
      if Value.is_null acc.vmin || Value.compare v acc.vmin < 0 then acc.vmin <- v;
      if Value.is_null acc.vmax || Value.compare v acc.vmax > 0 then acc.vmax <- v
  in
  match agg with
  | Count -> acc.count <- acc.count + 1
  | Count_if e -> if Expr.eval_bool schema row e then acc.count <- acc.count + 1
  | Sum e | Avg e | Min e | Max e | Std e -> feed_numeric e

(* Min/Max pick their winner by [Value.compare] (exact across Int and
   Float) and emit it as the [Tfloat] that [Aggregate.output_type]
   declares. *)
let extreme = function Value.Null -> Value.Null | v -> Value.Float (Value.to_float v)

let finish_acc agg acc =
  match agg with
  | Count | Count_if _ -> Value.Int acc.count
  | Sum _ -> Value.Float acc.sum
  | Avg _ -> if acc.count = 0 then Value.Null else Value.Float (acc.sum /. float_of_int acc.count)
  | Min _ -> extreme acc.vmin
  | Max _ -> extreme acc.vmax
  | Std _ ->
    if acc.count < 2 then Value.Null
    else begin
      let n = float_of_int acc.count in
      let var = (acc.sum_sq -. (acc.sum *. acc.sum /. n)) /. (n -. 1.) in
      Value.Float (sqrt (Float.max var 0.))
    end

let group_by ~keys ~aggs table =
  let schema = Table.schema table in
  List.iter (fun (_, agg) -> Aggregate.check (types schema) agg) aggs;
  let key_idx = List.map (Schema.column_index schema) keys in
  let key_schema_cols =
    List.map (fun k -> (k, Schema.column_type schema k)) keys
  in
  let out_schema =
    Schema.of_list (key_schema_cols @ List.map (fun (n, a) -> (n, Aggregate.output_type a)) aggs)
  in
  (* Keyed by [Value.hash]: a NaN group key used to raise [Not_found]
     in the lookup below because structural equality never matched it. *)
  let groups : acc array Value.Tbl.t = Value.Tbl.create 64 in
  let order = ref [] in
  Array.iter
    (fun row ->
      let key = List.map (fun i -> row.(i)) key_idx in
      let accs =
        match Value.Tbl.find_opt groups key with
        | Some accs -> accs
        | None ->
          let accs = Array.of_list (List.map (fun _ -> fresh_acc ()) aggs) in
          Value.Tbl.add groups key accs;
          order := key :: !order;
          accs
      in
      List.iteri (fun i (_, agg) -> feed_acc agg schema row accs.(i)) aggs)
    (Table.rows table);
  let keys_in_order =
    match (!order, keys) with
    | [], [] ->
      (* Global aggregate over an empty or non-empty table: one row. *)
      if Value.Tbl.length groups = 0 then begin
        Value.Tbl.add groups []
          (Array.of_list (List.map (fun _ -> fresh_acc ()) aggs));
        [ [] ]
      end
      else [ [] ]
    | found, _ -> List.rev found
  in
  let out_rows =
    List.map
      (fun key ->
        let accs = Value.Tbl.find groups key in
        Array.of_list
          (key @ List.mapi (fun i (_, agg) -> finish_acc agg accs.(i)) aggs))
      keys_in_order
  in
  Table.create out_schema out_rows

let order_by ?(descending = false) names table =
  let schema = Table.schema table in
  let idxs = List.map (Schema.column_index schema) names in
  let cmp a b =
    let rec go = function
      | [] -> 0
      | i :: rest ->
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go rest
    in
    let c = go idxs in
    if descending then -c else c
  in
  let rows = Array.copy (Table.rows table) in
  (* Array.sort is not stable; sort (row, original index) pairs instead. *)
  let indexed = Array.mapi (fun i row -> (row, i)) rows in
  Array.sort
    (fun (a, ia) (b, ib) ->
      let c = cmp a b in
      if c <> 0 then c else Int.compare ia ib)
    indexed;
  Table.of_rows schema (Array.map fst indexed)

let distinct table =
  let seen = Value.Tbl.create 64 in
  let out = ref [] in
  Array.iter
    (fun row ->
      let key = Array.to_list row in
      if not (Value.Tbl.mem seen key) then begin
        Value.Tbl.add seen key ();
        out := row :: !out
      end)
    (Table.rows table);
  Table.of_rows (Table.schema table) (Array.of_list (List.rev !out))

let union = Table.append

let limit n table =
  (* Not an assert: validation must survive [-noassert] builds. *)
  if n < 0 then invalid_arg "Algebra.limit: negative row count";
  let rows = Table.rows table in
  Table.of_rows (Table.schema table) (Array.sub rows 0 (min n (Array.length rows)))
