open Mde_relational

let v_int i = Value.Int i
let v_str s = Value.String s
let v_float f = Value.Float f

let people_schema =
  Schema.of_list
    [ ("id", Value.Tint); ("name", Value.Tstring); ("age", Value.Tint); ("score", Value.Tfloat) ]

let people =
  Table.create people_schema
    [
      [| v_int 1; v_str "ann"; v_int 34; v_float 7.5 |];
      [| v_int 2; v_str "bob"; v_int 4; v_float 3.0 |];
      [| v_int 3; v_str "cal"; v_int 61; v_float 9.1 |];
      [| v_int 4; v_str "dee"; v_int 4; v_float 5.5 |];
      [| v_int 5; v_str "eli"; v_int 25; Value.Null |];
    ]

(* --- values and schemas --- *)

let test_value_compare () =
  Alcotest.(check bool) "int < float cross" true (Value.compare (v_int 1) (v_float 1.5) < 0);
  Alcotest.(check bool) "numeric equal" true (Value.equal (v_int 2) (v_float 2.));
  Alcotest.(check bool) "null smallest" true (Value.compare Value.Null (v_int (-100)) < 0);
  Alcotest.(check bool) "string order" true (Value.compare (v_str "a") (v_str "b") < 0)

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.create: duplicate column \"x\"") (fun () ->
      ignore (Schema.of_list [ ("x", Value.Tint); ("x", Value.Tfloat) ]))

let test_schema_lookup () =
  Alcotest.(check int) "index" 2 (Schema.column_index people_schema "age");
  Alcotest.(check bool) "mem" true (Schema.mem people_schema "score");
  Alcotest.(check bool) "not mem" false (Schema.mem people_schema "missing")

let test_schema_rename_concat () =
  let renamed = Schema.rename people_schema [ ("id", "pid") ] in
  Alcotest.(check bool) "renamed" true (Schema.mem renamed "pid");
  let other = Schema.of_list [ ("city", Value.Tstring) ] in
  let joined = Schema.concat renamed other in
  Alcotest.(check int) "arity" 5 (Schema.arity joined)

let test_table_type_check () =
  Alcotest.(check bool) "bad type raises" true
    (try
       ignore (Table.create people_schema [ [| v_str "oops"; v_str "x"; v_int 1; v_float 0. |] ]);
       false
     with Invalid_argument _ -> true)

let test_table_null_allowed () =
  Alcotest.(check int) "5 rows" 5 (Table.cardinality people);
  Alcotest.(check bool) "null kept" true (Value.is_null (Table.get people 4 "score"))

let test_value_display () =
  Alcotest.(check string) "null" "NULL" (Value.to_display Value.Null);
  Alcotest.(check string) "int" "42" (Value.to_display (v_int 42));
  Alcotest.(check string) "bool" "true" (Value.to_display (Value.Bool true));
  Alcotest.(check string) "float" "2.5" (Value.to_display (v_float 2.5));
  Alcotest.(check bool) "coercion errors" true
    (try
       ignore (Value.to_float (v_str "x"));
       false
     with Invalid_argument _ -> true)

(* --- expressions --- *)

let test_expr_eval () =
  let row = (Table.rows people).(0) in
  let e = Expr.((col "age" + int 6) / int 2) in
  Alcotest.(check (float 1e-9)) "arith" 20. (Value.to_float (Expr.eval people_schema row e));
  Alcotest.(check bool) "bool" true
    (Expr.eval_bool people_schema row Expr.(col "name" = string "ann"));
  Alcotest.(check bool) "null comparison false" false
    (Expr.eval_bool people_schema (Table.rows people).(4) Expr.(col "score" > float 0.))

let test_expr_columns_used () =
  let e = Expr.((col "a" + col "b") * col "a") in
  Alcotest.(check (list string)) "distinct in order" [ "a"; "b" ] (Expr.columns_used e)

let test_expr_if () =
  let row = (Table.rows people).(1) in
  let e = Expr.(If (col "age" <= int 4, string "preschool", string "other")) in
  Alcotest.(check string) "if" "preschool"
    (Value.to_string_value (Expr.eval people_schema row e))

(* --- algebra --- *)

let test_select () =
  let kids = Algebra.select Expr.(col "age" <= int 4) people in
  Alcotest.(check int) "two preschoolers" 2 (Table.cardinality kids)

let test_project_extend () =
  let p = Algebra.project [ "name"; "age" ] people in
  Alcotest.(check int) "arity" 2 (Schema.arity (Table.schema p));
  let e = Algebra.extend [ ("age2", Value.Tint, Expr.(col "age" * int 2)) ] people in
  Alcotest.(check int) "computed" 68 (Value.to_int (Table.get e 0 "age2"))

let orders_schema =
  Schema.of_list [ ("order_id", Value.Tint); ("customer", Value.Tint); ("total", Value.Tfloat) ]

let orders =
  Table.create orders_schema
    [
      [| v_int 10; v_int 1; v_float 20. |];
      [| v_int 11; v_int 1; v_float 5. |];
      [| v_int 12; v_int 3; v_float 8. |];
      [| v_int 13; v_int 9; v_float 1. |];
    ]

let test_equi_join () =
  let j = Algebra.equi_join ~on:[ ("id", "customer") ] people orders in
  Alcotest.(check int) "3 matches" 3 (Table.cardinality j);
  (* Matches a hand-rolled nested loop. *)
  let manual = ref 0 in
  Table.iter
    (fun p ->
      Table.iter
        (fun o -> if Value.equal p.(0) o.(1) then incr manual)
        orders)
    people;
  Alcotest.(check int) "nested loop agrees" !manual (Table.cardinality j)

let test_left_join () =
  let j = Algebra.equi_join ~kind:Algebra.Left ~on:[ ("id", "customer") ] people orders in
  (* ann twice, bob padded, cal once, dee padded, eli padded = 6 rows. *)
  Alcotest.(check int) "left join rows" 6 (Table.cardinality j);
  let padded =
    Array.to_list (Table.rows j)
    |> List.filter (fun row -> Value.is_null row.(4))
  in
  Alcotest.(check int) "padded rows" 3 (List.length padded)

let test_theta_join () =
  let small = Algebra.rename [ ("id", "id2"); ("name", "name2"); ("age", "age2"); ("score", "score2") ] people in
  let j = Algebra.theta_join ~on:Expr.(col "age" < col "age2") people small in
  (* Count pairs with age_i < age_j manually. *)
  let ages = Table.column_floats people "age" in
  let expected = ref 0 in
  Array.iter (fun a -> Array.iter (fun b -> if a < b then incr expected) ages) ages;
  Alcotest.(check int) "pairs" !expected (Table.cardinality j)

let test_semi_anti_join () =
  let matched = Algebra.semi_join ~on:[ ("id", "customer") ] people orders in
  (* ann and cal have orders; each appears once despite ann's two orders. *)
  Alcotest.(check int) "semi join" 2 (Table.cardinality matched);
  let unmatched = Algebra.anti_join ~on:[ ("id", "customer") ] people orders in
  Alcotest.(check int) "anti join" 3 (Table.cardinality unmatched);
  (* Semi + anti partition the left side. *)
  Alcotest.(check int) "partition" 5
    (Table.cardinality matched + Table.cardinality unmatched);
  (* Null keys never match. *)
  let with_null =
    Table.create people_schema [ [| Value.Null; v_str "zed"; v_int 1; v_float 0. |] ]
  in
  Alcotest.(check int) "null key excluded" 0
    (Table.cardinality (Algebra.semi_join ~on:[ ("id", "customer") ] with_null orders))

let test_group_by () =
  let g =
    Algebra.group_by ~keys:[ "age" ]
      ~aggs:
        [
          ("n", Algebra.Count);
          ("total", Algebra.Sum (Expr.col "score"));
          ("best", Algebra.Max (Expr.col "score"));
        ]
      people
  in
  (* ages: 34, 4 (×2), 61, 25 → 4 groups. *)
  Alcotest.(check int) "groups" 4 (Table.cardinality g);
  let four = Algebra.select Expr.(col "age" = int 4) g in
  Alcotest.(check int) "n" 2 (Value.to_int (Table.get four 0 "n"));
  Alcotest.(check (float 1e-9)) "sum" 8.5 (Value.to_float (Table.get four 0 "total"));
  Alcotest.(check (float 1e-9)) "max" 5.5 (Value.to_float (Table.get four 0 "best"))

let test_group_by_global () =
  let g = Algebra.group_by ~keys:[] ~aggs:[ ("n", Algebra.Count) ] people in
  Alcotest.(check int) "one row" 1 (Table.cardinality g);
  Alcotest.(check int) "count" 5 (Value.to_int (Table.get g 0 "n"))

let test_group_by_skips_nulls () =
  let g =
    Algebra.group_by ~keys:[] ~aggs:[ ("avg", Algebra.Avg (Expr.col "score")) ] people
  in
  (* Nulls excluded: (7.5+3.0+9.1+5.5)/4. *)
  Alcotest.(check (float 1e-9)) "avg" 6.275 (Value.to_float (Table.get g 0 "avg"))

(* NaN keys: [Value.compare] makes every NaN equal to itself and
   [Value.hash] gives every NaN payload the same hash, so the hash-keyed
   operators must treat NaN as one key — not leak one group (or drop one
   match) per row. Regression for the float-keyed Monte Carlo outputs
   the bundle engine feeds through these operators. *)
let test_nan_keys () =
  let neg_nan = Int64.float_of_bits 0xFFF8000000000001L in
  let t =
    Table.create
      (Schema.of_list [ ("k", Value.Tfloat); ("x", Value.Tfloat) ])
      [
        [| v_float nan; v_float 1. |];
        [| v_float 2.; v_float 10. |];
        [| v_float neg_nan; v_float 5. |];
      ]
  in
  let g =
    Algebra.group_by ~keys:[ "k" ]
      ~aggs:[ ("s", Algebra.Sum (Expr.col "x")); ("n", Algebra.Count) ]
      t
  in
  Alcotest.(check int) "NaN payloads collapse to one group" 2 (Table.cardinality g);
  let nan_group =
    Array.to_list (Table.rows g)
    |> List.find (fun r ->
           match r.(0) with Value.Float f -> Float.is_nan f | _ -> false)
  in
  Alcotest.(check (float 1e-9)) "NaN group sums both rows" 6.
    (Value.to_float nan_group.(1));
  Alcotest.(check int) "NaN group counts both rows" 2 (Value.to_int nan_group.(2));
  let right =
    Table.create
      (Schema.of_list [ ("rk", Value.Tfloat); ("y", Value.Tint) ])
      [ [| v_float nan; v_int 7 |] ]
  in
  let j = Algebra.equi_join ~on:[ ("k", "rk") ] t right in
  Alcotest.(check int) "NaN join key matches both NaN rows" 2 (Table.cardinality j);
  Alcotest.(check int) "distinct collapses NaN duplicates" 2
    (Table.cardinality (Algebra.distinct (Algebra.project [ "k" ] t)))

(* Int and Float keys that compare equal must hash equal — group_by and
   joins key by [Value.equal], so Int 2 and Float 2. are the same key. *)
let test_cross_type_numeric_keys () =
  let l =
    Table.create
      (Schema.of_list [ ("k", Value.Tint) ])
      [ [| v_int 2 |]; [| v_int 3 |] ]
  in
  let r =
    Table.create
      (Schema.of_list [ ("rk", Value.Tfloat) ])
      [ [| v_float 2. |] ]
  in
  Alcotest.(check int) "Int 2 joins Float 2." 1
    (Table.cardinality (Algebra.equi_join ~on:[ ("k", "rk") ] l r))

let test_count_if () =
  let g =
    Algebra.group_by ~keys:[]
      ~aggs:[ ("kids", Algebra.Count_if Expr.(col "age" <= int 4)) ]
      people
  in
  Alcotest.(check int) "count_if" 2 (Value.to_int (Table.get g 0 "kids"))

let test_order_by () =
  let sorted = Algebra.order_by [ "age" ] people in
  let ages = Table.column_floats sorted "age" in
  Alcotest.(check bool) "nondecreasing" true
    (Array.for_all2 ( <= ) (Array.sub ages 0 4) (Array.sub ages 1 4));
  let desc = Algebra.order_by ~descending:true [ "age" ] sorted in
  Alcotest.(check (float 1e-9)) "desc first" 61. (Table.column_floats desc "age").(0)

let test_order_by_stable () =
  (* Rows with equal keys keep their input order. *)
  let sorted = Algebra.order_by [ "age" ] people in
  let names = Table.column sorted "name" in
  Alcotest.(check string) "bob before dee" "bob" (Value.to_string_value names.(0));
  Alcotest.(check string) "dee second" "dee" (Value.to_string_value names.(1))

let test_distinct_union_limit () =
  let doubled = Algebra.union people people in
  Alcotest.(check int) "union" 10 (Table.cardinality doubled);
  Alcotest.(check int) "distinct" 5 (Table.cardinality (Algebra.distinct doubled));
  Alcotest.(check int) "limit" 3 (Table.cardinality (Algebra.limit 3 doubled))

let test_empty_table_operators () =
  let empty = Table.empty people_schema in
  Alcotest.(check int) "select" 0
    (Table.cardinality (Algebra.select Expr.(col "age" > int 0) empty));
  Alcotest.(check int) "project" 0
    (Table.cardinality (Algebra.project [ "name" ] empty));
  Alcotest.(check int) "extend" 0
    (Table.cardinality
       (Algebra.extend [ ("x", Value.Tint, Expr.int 1) ] empty));
  Alcotest.(check int) "join empty left" 0
    (Table.cardinality (Algebra.equi_join ~on:[ ("id", "customer") ] empty orders));
  Alcotest.(check int) "join empty right" 0
    (Table.cardinality
       (Algebra.equi_join ~on:[ ("id", "customer") ] people (Table.empty orders_schema)));
  Alcotest.(check int) "left join keeps left" 5
    (Table.cardinality
       (Algebra.equi_join ~kind:Algebra.Left ~on:[ ("id", "customer") ] people
          (Table.empty orders_schema)));
  Alcotest.(check int) "order_by" 0 (Table.cardinality (Algebra.order_by [ "age" ] empty));
  Alcotest.(check int) "distinct" 0 (Table.cardinality (Algebra.distinct empty));
  Alcotest.(check int) "limit" 0 (Table.cardinality (Algebra.limit 3 empty));
  (* Grouped aggregate over empty input: no groups. *)
  Alcotest.(check int) "group_by keyed" 0
    (Table.cardinality (Algebra.group_by ~keys:[ "age" ] ~aggs:[ ("n", Algebra.Count) ] empty));
  (* Global aggregate over empty input: one zero-count row. *)
  let g = Algebra.group_by ~keys:[] ~aggs:[ ("n", Algebra.Count) ] empty in
  Alcotest.(check int) "global count row" 1 (Table.cardinality g);
  Alcotest.(check int) "count zero" 0 (Value.to_int (Table.get g 0 "n"));
  Alcotest.(check int) "semi join" 0
    (Table.cardinality (Algebra.semi_join ~on:[ ("id", "customer") ] empty orders))

(* --- columnar substrate: bit-identity against the row oracle --- *)

(* Exact identity, not semantic equality: floats must match bit for bit
   (NaN payloads included), and Int 2 is not Float 2. *)
let value_identical a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

let tables_identical a b =
  Schema.column_names (Table.schema a) = Schema.column_names (Table.schema b)
  && Table.cardinality a = Table.cardinality b
  && Array.for_all2
       (fun ra rb -> Array.for_all2 value_identical ra rb)
       (Table.rows a) (Table.rows b)

(* Check one columnar operator's output against its row oracle. *)
let matches oracle c = tables_identical oracle (Columnar.to_table c)

let test_columnar_roundtrip () =
  Alcotest.(check bool) "of_table |> to_table is the identity" true
    (tables_identical people (Columnar.to_table (Columnar.of_table people)))

let test_columnar_matches_algebra_people () =
  let c = Columnar.of_table people in
  let num_pred = Expr.(col "age" <= int 4) in
  let str_pred = Expr.(col "name" = string "ann") in
  let defs = [ ("age2", Value.Tint, Expr.(col "age" * int 2)) ] in
  let aggs = [ ("n", Algebra.Count); ("best", Algebra.Max (Expr.col "score")) ] in
  Alcotest.(check bool) "select (numeric pred)" true
    (matches (Algebra.select num_pred people) (Columnar.select num_pred c));
  Alcotest.(check bool) "select (string pred)" true
    (matches (Algebra.select str_pred people) (Columnar.select str_pred c));
  Alcotest.(check bool) "extend" true
    (matches (Algebra.extend defs people) (Columnar.extend defs c));
  Alcotest.(check bool) "group_by (null score skipped)" true
    (matches
       (Algebra.group_by ~keys:[ "age" ] ~aggs people)
       (Columnar.group_by ~keys:[ "age" ] ~aggs c));
  Alcotest.(check bool) "project" true
    (tables_identical
       (Algebra.project [ "name"; "score" ] people)
       (Columnar.to_table (Columnar.project [ "name"; "score" ] c)));
  Alcotest.(check bool) "order_by strings" true
    (tables_identical
       (Algebra.order_by [ "name" ] people)
       (Columnar.to_table (Columnar.order_by [ "name" ] c)));
  Alcotest.(check bool) "distinct" true
    (tables_identical (Algebra.distinct people) (Columnar.to_table (Columnar.distinct c)));
  Alcotest.(check bool) "join" true
    (tables_identical
       (Algebra.equi_join ~on:[ ("id", "customer") ] people orders)
       (Columnar.to_table
          (Columnar.equi_join ~on:[ ("id", "customer") ] c (Columnar.of_table orders))))

let test_columnar_empty_global () =
  let empty = Table.empty people_schema in
  let aggs =
    [ ("n", Algebra.Count); ("s", Algebra.Sum (Expr.col "score"));
      ("m", Algebra.Avg (Expr.col "score")) ]
  in
  let oracle = Algebra.group_by ~keys:[] ~aggs empty in
  Alcotest.(check bool) "empty global row identical" true
    (matches oracle (Columnar.group_by ~keys:[] ~aggs (Columnar.of_table empty)));
  Alcotest.(check int) "keyed empty: no groups" 0
    (Columnar.row_count
       (Columnar.group_by ~keys:[ "age" ] ~aggs:[ ("n", Algebra.Count) ]
          (Columnar.of_table empty)))

let test_limit_negative () =
  Alcotest.check_raises "algebra"
    (Invalid_argument "Algebra.limit: negative row count") (fun () ->
      ignore (Algebra.limit (-1) people));
  Alcotest.check_raises "columnar"
    (Invalid_argument "Columnar.limit: negative row count") (fun () ->
      ignore (Columnar.limit (-1) (Columnar.of_table people)))

(* Randomized tables with NaN keys and nulls, the hostile inputs the
   bundle engine's Monte Carlo outputs actually contain. *)
let mixed_rows_gen =
  QCheck.Gen.(
    let vfloat =
      frequency
        [ (6, map (fun f -> Value.Float f) (float_range (-5.) 5.));
          (1, return (Value.Float nan));
          (1, return Value.Null) ]
    in
    let row = map3 (fun k g v -> (k, g, v)) vfloat (int_range 0 3) vfloat in
    list_size (int_range 0 30) row)

let mixed_table rows =
  let schema =
    Schema.of_list [ ("k", Value.Tfloat); ("g", Value.Tint); ("v", Value.Tfloat) ]
  in
  Table.create schema (List.map (fun (k, g, v) -> [| k; Value.Int g; v |]) rows)

(* Shapes whose kind the typing rule fixes beyond their operands: an
   always-Null [If] branch (it takes the other branch's kind),
   comparisons with Null (false), comparisons across kinds with no
   common order (the constant of their ranks, false on a Null side),
   and definitions that are always Null (a column of the declared
   type). *)
let null_branch = Expr.(If (col "g" = int 1, col "v", Lit Value.Null))

let typed_preds =
  Expr.
    [ null_branch > float 0.;
      col "v" > Lit Value.Null || (col "v" < string "z" && Not (Lit Value.Null));
      col "k" <> bool true && (Lit Value.Null = col "k" || (col "v" > float 0.) < col "g") ]

let typed_defs =
  [ ("x", Value.Tfloat, null_branch);
    ("y", Value.Tbool, Expr.(string "" > col "k"));
    ("z", Value.Tstring, Expr.(Lit Value.Null)) ]

let typed_aggs =
  Algebra.
    [ ("fs", Sum null_branch);
      ("fhi", Max null_branch);
      ("nz", Count_if Expr.(col "v" < string "z"));
      ("nn", Sum (Expr.Lit Value.Null));
      ("ln", Min Expr.(Lit Value.Null + col "g")) ]

let prop_columnar_matches_algebra =
  QCheck.Test.make ~name:"columnar kernel == interpreter == row algebra" ~count:120
    (QCheck.make mixed_rows_gen)
    (fun rows ->
      let t = mixed_table rows in
      let c = Columnar.of_table t in
      let pred = Expr.(col "v" > float 0. || col "g" = int 1) in
      let defs = [ ("w", Value.Tfloat, Expr.((col "v" * float 2.) + col "k")) ] in
      let aggs =
        [ ("n", Algebra.Count);
          ("pos", Algebra.Count_if Expr.(col "v" > float 0.));
          ("s", Algebra.Sum (Expr.col "v"));
          ("m", Algebra.Avg (Expr.col "v"));
          ("sd", Algebra.Std (Expr.col "v"));
          ("lo", Algebra.Min (Expr.col "k"));
          ("hi", Algebra.Max (Expr.col "k")) ]
      in
      matches (Algebra.select pred t) (Columnar.select pred c)
      && matches (Algebra.extend defs t) (Columnar.extend defs c)
      && matches
           (Algebra.group_by ~keys:[ "g" ] ~aggs t)
           (Columnar.group_by ~keys:[ "g" ] ~aggs c)
      && matches
           (* Float keys: NaN collapses to one group, Null forms its own. *)
           (Algebra.group_by ~keys:[ "k" ] ~aggs:[ ("n", Algebra.Count) ] t)
           (Columnar.group_by ~keys:[ "k" ] ~aggs:[ ("n", Algebra.Count) ] c)
      && List.for_all
           (fun pred -> matches (Algebra.select pred t) (Columnar.select pred c))
           typed_preds
      && matches (Algebra.extend (typed_defs @ defs) t) (Columnar.extend (typed_defs @ defs) c)
      && matches
           (Algebra.group_by ~keys:[ "g" ] ~aggs:(typed_aggs @ aggs) t)
           (Columnar.group_by ~keys:[ "g" ] ~aggs:(typed_aggs @ aggs) c)
      && tables_identical
           (Algebra.project [ "v"; "g" ] t)
           (Columnar.to_table (Columnar.project [ "v"; "g" ] c))
      && tables_identical
           (Algebra.order_by [ "k"; "v" ] t)
           (Columnar.to_table (Columnar.order_by [ "k"; "v" ] c))
      && tables_identical
           (Algebra.order_by ~descending:true [ "v" ] t)
           (Columnar.to_table (Columnar.order_by ~descending:true [ "v" ] c))
      && tables_identical (Algebra.distinct t) (Columnar.to_table (Columnar.distinct c))
      && tables_identical (Algebra.limit 7 t)
           (Columnar.to_table (Columnar.limit 7 c)))

let prop_columnar_join_mixed_keys =
  QCheck.Test.make ~name:"columnar join == row join on Int/Float mixed keys"
    ~count:120
    QCheck.(pair (small_list (int_range 0 4)) (small_list (int_range 0 4)))
    (fun (ls, rs) ->
      let left =
        Table.create
          (Schema.of_list [ ("k", Value.Tint); ("x", Value.Tint) ])
          (List.mapi (fun i k -> [| Value.Int k; Value.Int i |]) ls)
      in
      let right =
        Table.create
          (Schema.of_list [ ("rk", Value.Tfloat); ("y", Value.Tint) ])
          (List.mapi
             (fun i k ->
               [|
                 (* Int 4 on the left meets Null on the right: null keys
                    must never match, in either engine. *)
                 (if k = 4 then Value.Null else Value.Float (float_of_int k));
                 Value.Int i;
               |])
             rs)
      in
      tables_identical
        (Algebra.equi_join ~on:[ ("k", "rk") ] left right)
        (Columnar.to_table
           (Columnar.equi_join ~on:[ ("k", "rk") ] (Columnar.of_table left)
              (Columnar.of_table right))))

let test_columnar_pooled_identity () =
  let rng = Mde_prob.Rng.create ~seed:42 () in
  let rows =
    List.init 5000 (fun i ->
        ( (if i mod 97 = 0 then Value.Null
           else if i mod 41 = 0 then Value.Float nan
           else Value.Float (Mde_prob.Rng.float_range rng (-5.) 5.)),
          Mde_prob.Rng.int rng 4,
          Value.Float (Mde_prob.Rng.float_range rng (-5.) 5.) ))
  in
  let c = Columnar.of_table (mixed_table rows) in
  let pred = Expr.(col "v" > col "k") in
  let defs = [ ("w", Value.Tfloat, Expr.(col "v" + col "k")) ] in
  Mde_par.Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun (pred, defs) ->
          Alcotest.(check bool) "pooled select == sequential" true
            (tables_identical
               (Columnar.to_table (Columnar.select pred c))
               (Columnar.to_table (Columnar.select ~pool pred c)));
          Alcotest.(check bool) "pooled extend == sequential" true
            (tables_identical
               (Columnar.to_table (Columnar.extend defs c))
               (Columnar.to_table (Columnar.extend ~pool defs c))))
        ((pred, defs) :: List.map (fun p -> (p, typed_defs)) typed_preds))

(* Block kernels: every operator over several blocks, pooled or not,
   agrees with the row oracle bit for bit, the typed-Null and cross-kind
   shapes and every aggregate kind included. *)
let test_columnar_blocks_match_algebra () =
  let rng = Mde_prob.Rng.create ~seed:7 () in
  let v () = Value.Float (Mde_prob.Rng.float_range rng (-5.) 5.) in
  let rows =
    List.init ((3 * Kernel.block) + 17) (fun i ->
        ( (if i mod 97 = 0 then Value.Null else if i mod 41 = 0 then Value.Float nan else v ()),
          Mde_prob.Rng.int rng 4,
          if i mod 53 = 0 then Value.Null else v () ))
  in
  let t = mixed_table rows in
  let c = Columnar.of_table t in
  let preds = Expr.((col "v" > float 0. && col "g" <> int 2) || Is_null (col "k")) :: typed_preds in
  let defs = ("w", Value.Tfloat, Expr.((col "v" * float 2.) - col "k")) :: typed_defs in
  let aggs =
    Algebra.
      [ ("n", Count);
        ("pos", Count_if Expr.(col "v" > float 0.));
        ("s", Sum (Expr.col "v"));
        ("m", Avg (Expr.col "k"));
        ("sd", Std (Expr.col "v"));
        ("lo", Min (Expr.col "k"));
        ("hi", Max (Expr.col "v")) ]
      @ typed_aggs
  in
  Mde_par.Pool.with_pool ~domains:2 (fun p ->
      List.iter
        (fun pool ->
          let check name ok = Alcotest.(check bool) name true ok in
          List.iter
            (fun pred -> check "select" (matches (Algebra.select pred t) (Columnar.select ?pool pred c)))
            preds;
          check "extend" (matches (Algebra.extend defs t) (Columnar.extend ?pool defs c));
          List.iter
            (fun keys ->
              check "group_by"
                (matches (Algebra.group_by ~keys ~aggs t) (Columnar.group_by ?pool ~keys ~aggs c)))
            [ []; [ "g" ]; [ "k" ] ])
        [ None; Some p ])

(* Allocation grows with the number of blocks, not with rows. Measured
   as marginal words per row between 20k and 40k rows, so the per-call
   setup (one block's scratch per expression node) cancels: select pays
   a byte per survivor for its position in its block, and a word for
   its output index, and the aggregate
   feeders of group_by nothing per row. Each figure is the least of
   three calls, past one-off work on first use. *)
let allocated_words f =
  let once () =
    let before = Mde_obs.allocated_words () in
    ignore (Sys.opaque_identity (f ()));
    Mde_obs.allocated_words () -. before
  in
  List.fold_left Float.min infinity (List.init 3 (fun _ -> once ()))

let test_columnar_allocation () =
  let n = 20_000 in
  let table rows =
    let rng = Mde_prob.Rng.create ~seed:11 () in
    let v () = Value.Float (Mde_prob.Rng.float_range rng (-5.) 5.) in
    mixed_table (List.init rows (fun _ -> (v (), Mde_prob.Rng.int rng 50, v ())))
  in
  let small = table n and large = table (2 * n) in
  let check name bound words =
    let marginal = (words large -. words small) /. float_of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f words/row <= %g" name marginal bound)
      true (marginal <= bound)
  in
  (* The column image is built before measuring. *)
  let c t = Columnar.of_table t in
  (* About 10% survive: 1/80 word of block positions and 0.1 of output
     per row. *)
  let pred = Expr.(col "v" > float 4. && col "k" < float 4.5) in
  check "select" 0.3 (fun t ->
      let c = c t in
      allocated_words (fun () -> Columnar.select pred c));
  let aggs =
    Algebra.
      [ ("n", Count);
        ("pos", Count_if Expr.(col "v" > float 0.));
        ("s", Sum Expr.(col "v" + col "k"));
        ("m", Avg (Expr.col "v"));
        ("sd", Std (Expr.col "k"));
        ("lo", Min (Expr.col "v"));
        ("hi", Max (Expr.col "k")) ]
  in
  check "global group_by" 0.05 (fun t ->
      let c = c t in
      allocated_words (fun () -> Columnar.group_by ~keys:[] ~aggs c));
  (* Keyed: the feeders' share, over a count alone on the same keys. *)
  check "keyed group_by feeders" 0.05 (fun t ->
      let c = c t in
      allocated_words (fun () -> Columnar.group_by ~keys:[ "g" ] ~aggs c)
      -. allocated_words (fun () ->
             Columnar.group_by ~keys:[ "g" ] ~aggs:[ ("n", Algebra.Count) ] c))

(* --- packed key codes --- *)

let det_col ty vs =
  let a = Array.of_list vs in
  Column.of_det_cells ~ty ~rows:(Array.length a) ~reps:1 (fun i -> a.(i))

let codes_equal (a : int array) i (b : int array) j = a.(i) = b.(j)

(* The encoding contract: codes compare equal exactly when the boxed
   keys are Value.Key-equal. [sides] is a list of (components, boxed
   key per row) pairs; every cross-side row pair is checked, and the
   null flags must mark exactly the rows with a Null component. *)
let check_injective label sides =
  match Keycode.of_columns (List.map (fun (cs, _) -> Array.of_list cs) sides) with
  | None -> Alcotest.failf "%s: encoder refused" label
  | Some enc ->
    let coded =
      List.mapi
        (fun s (_, keys) -> (Keycode.encode enc ~side:s, Array.of_list keys))
        sides
    in
    List.iteri
      (fun si (ci, keys_i) ->
        List.iteri
          (fun sj (cj, keys_j) ->
            Array.iteri
              (fun i ki ->
                Array.iteri
                  (fun j kj ->
                    let want = Value.Key.equal ki kj in
                    let got = codes_equal ci.Keycode.keys i cj.Keycode.keys j in
                    if want <> got then
                      Alcotest.failf
                        "%s: side %d row %d vs side %d row %d: keys %s but codes %s"
                        label si i sj j
                        (if want then "equal" else "differ")
                        (if got then "equal" else "differ"))
                  keys_j)
              keys_i)
          coded)
      coded;
    List.iteri
      (fun s (c, keys) ->
        let flag =
          match c.Keycode.null_rows with
          | None -> fun _ -> false
          | Some flags -> fun i -> flags.(i)
        in
        Array.iteri
          (fun i key ->
            if List.exists Value.is_null key <> flag i then
              Alcotest.failf "%s: side %d row %d null flag wrong" label s i)
          keys)
      coded

let neg_nan = Int64.float_of_bits 0xFFF8000000000001L

(* The keyed operators of Columnar, Reljob and Bundle (n_reps = 1) on
   [table] keyed by [keys], each against its row Algebra oracle. *)
let keyed_ops_match_algebra ?pool table keys =
  let c = Columnar.of_table table in
  let aggs = [ ("n", Algebra.Count) ] in
  let grouped = Algebra.group_by ~keys ~aggs table in
  let reljob, _ = Mde_mapred.Reljob.group_by ?pool ~keys ~aggs table in
  let sorted t =
    List.sort (List.compare Value.compare) (List.map Array.to_list (Array.to_list (Table.rows t)))
  in
  let b = Mde_mcdb.Bundle.of_table table ~n_reps:1 in
  let bundle_groups =
    Mde_mcdb.Bundle.aggregate ?pool ~keys [ ("n", Aggregate.Count) ] b
    |> List.map (fun (key, per_agg) ->
           Array.append key [| Value.Int (int_of_float per_agg.(0).(0)) |])
  in
  (* A self-join, the build side renamed apart. *)
  let right =
    Algebra.rename
      (List.map (fun n -> (n, "r_" ^ n)) (Schema.column_names (Table.schema table)))
      table
  in
  let pairs = List.map (fun k -> (k, "r_" ^ k)) keys in
  let joined = Algebra.equi_join ~on:pairs table right in
  matches grouped (Columnar.group_by ?pool ~keys ~aggs c)
  && matches (Algebra.distinct (Algebra.project keys table))
       (Columnar.distinct ?pool (Columnar.project keys c))
  && matches (Algebra.order_by keys table) (Columnar.order_by keys c)
  && matches (Algebra.order_by ~descending:true keys table)
       (Columnar.order_by ~descending:true keys c)
  && matches joined (Columnar.equi_join ?pool ~on:pairs c (Columnar.of_table right))
  && tables_identical joined
       (Mde_mcdb.Bundle.to_instances
          (Mde_mcdb.Bundle.join ~on:pairs b (Mde_mcdb.Bundle.of_table right ~n_reps:1))).(0)
  && tables_identical grouped
       (Table.of_rows (Table.schema grouped) (Array.of_list bundle_groups))
  && List.equal (List.equal Value.identical) (sorted grouped) (sorted reljob)

let test_keycode_float_composite () =
  (* A float component: the dictionary must collapse every NaN payload
     to one key and -0.0 onto +0.0, and keep Null apart. *)
  let fpool =
    [ Value.Float nan; Value.Float neg_nan; Value.Float (-0.); Value.Float 0.;
      Value.Null; Value.Float 1.5; Value.Float (-1.5) ]
  in
  let gpool = [ Value.Int 0; Value.Int 3; Value.Null ] in
  let rows = List.concat_map (fun f -> List.map (fun g -> (f, g)) gpool) fpool in
  let fcol = det_col Value.Tfloat (List.map fst rows) in
  let gcol = det_col Value.Tint (List.map snd rows) in
  check_injective "float+int composite"
    [ ([ fcol; gcol ], List.map (fun (f, g) -> [ f; g ]) rows) ];
  let t =
    Table.create
      (Schema.of_list [ ("f", Value.Tfloat); ("g", Value.Tint) ])
      (List.map (fun (f, g) -> [| f; g |]) rows)
  in
  Alcotest.(check bool) "keyed ops == algebra" true (keyed_ops_match_algebra t [ "f"; "g" ])

let test_keycode_packed_composite () =
  let ipool = [ Value.Int (-3); Value.Int 7; Value.Null ] in
  let bpool = [ Value.Bool true; Value.Bool false; Value.Null ] in
  let spool = [ Value.String "ann"; Value.String "bob"; Value.Null ] in
  let rows =
    List.concat_map
      (fun i -> List.concat_map (fun b -> List.map (fun s -> (i, b, s)) spool) bpool)
      ipool
  in
  let icol = det_col Value.Tint (List.map (fun (i, _, _) -> i) rows) in
  let bcol = det_col Value.Tbool (List.map (fun (_, b, _) -> b) rows) in
  let scol = det_col Value.Tstring (List.map (fun (_, _, s) -> s) rows) in
  check_injective "packed int+bool+string"
    [ ([ icol; bcol; scol ], List.map (fun (i, b, s) -> [ i; b; s ]) rows) ]

let test_keycode_cross_side_numeric () =
  let ls = [ Value.Int 2; Value.Int 3; Value.Int 0; Value.Null; Value.Int (-7) ] in
  let rs =
    [ Value.Float 2.; Value.Float nan; Value.Float (-0.); Value.Float 3.5; Value.Null ]
  in
  let l = det_col Value.Tint ls
  and r = det_col Value.Tfloat rs in
  check_injective "int side vs float side"
    [ ([ l ], List.map (fun v -> [ v ]) ls); ([ r ], List.map (fun v -> [ v ]) rs) ];
  (* The join pattern: table built from side 0, probed with side 1. *)
  let enc = Option.get (Keycode.of_columns [ [| l |]; [| r |] ]) in
  let build = Keycode.encode enc ~side:0
  and probe = Keycode.encode enc ~side:1 in
  let tbl = Keycode.tbl_create ~hint:8 build.Keycode.keys in
  Keycode.tbl_add_rows tbl ~skip:None (Array.make (List.length ls) 0);
  Alcotest.(check int) "distinct build keys" 5 (Keycode.tbl_count tbl);
  let found = Array.copy probe.Keycode.keys in
  Keycode.tbl_find_rows tbl ~skip:None found 0 (Array.length found);
  Alcotest.(check int) "Float 2. finds Int 2" 0 found.(0);
  Alcotest.(check int) "Float -0. finds Int 0" 2 found.(2);
  Alcotest.(check int) "NaN unmatched" (-1) found.(1);
  Alcotest.(check int) "3.5 unmatched" (-1) found.(3)

let test_keycode_shared_string_dict () =
  (* Same strings, different per-column dictionary codes (the insertion
     orders differ): the shared dictionary must reconcile them. *)
  let ls = [ "b"; "a"; "c"; "a" ]
  and rs = [ "c"; "c"; "b"; "d" ] in
  let lv = List.map (fun s -> Value.String s) ls
  and rv = List.map (fun s -> Value.String s) rs in
  check_injective "string dictionaries across sides"
    [ ([ det_col Value.Tstring lv ], List.map (fun v -> [ v ]) lv);
      ([ det_col Value.Tstring rv ], List.map (fun v -> [ v ]) rv) ];
  let lt =
    Table.create
      (Schema.of_list [ ("s", Value.Tstring); ("x", Value.Tint) ])
      (List.mapi (fun i s -> [| Value.String s; Value.Int i |]) ls)
  in
  let rt =
    Table.create
      (Schema.of_list [ ("rs", Value.Tstring); ("y", Value.Tint) ])
      (List.mapi (fun i s -> [| Value.String s; Value.Int i |]) rs)
  in
  Alcotest.(check bool) "string join == row oracle" true
    (tables_identical
       (Algebra.equi_join ~on:[ ("s", "rs") ] lt rt)
       (Columnar.to_table
          (Columnar.equi_join ~on:[ ("s", "rs") ] (Columnar.of_table lt)
             (Columnar.of_table rt))))

let test_keycode_wide_ints () =
  (* A range too wide to offset-pack is dictionary-coded, not wrapped:
     min_int and max_int stay distinct keys. *)
  let vs = [ Value.Int min_int; Value.Int max_int; Value.Int 0; Value.Int 1; Value.Null ] in
  let pair = List.map (fun _ -> Value.Int 1) vs in
  let wide = det_col Value.Tint vs
  and mate = det_col Value.Tint pair in
  check_injective "wide int composite"
    [ ([ wide; mate ], List.map2 (fun a b -> [ a; b ]) vs pair) ];
  let t =
    Table.create
      (Schema.of_list [ ("w", Value.Tint); ("m", Value.Tint) ])
      (List.map2 (fun a b -> [| a; b |]) vs pair)
  in
  Alcotest.(check bool) "keyed ops == algebra" true (keyed_ops_match_algebra t [ "w"; "m" ])

let test_keycode_refusals_and_raw () =
  Alcotest.(check bool) "no sides refused" true (Keycode.of_columns [] = None);
  (* The empty key is one constant code. *)
  (match Keycode.of_columns [ [||] ] with
  | None -> Alcotest.fail "the empty key should encode"
  | Some enc ->
    Alcotest.(check (array int)) "constant code" [| 0; 0; 0 |]
      (Keycode.codes enc ~side:0 ~rows:3).Keycode.keys);
  (* Beyond 2^53, float_of_int is not injective: an int column beside a
     float-typed mate must not conflate 2^53+1 with 2^53. *)
  let big = det_col Value.Tint [ Value.Int ((1 lsl 53) + 1) ] in
  let f = det_col Value.Tfloat [ Value.Float 1. ] in
  check_injective "inexact int beside a float"
    [ ([ big ], [ [ Value.Int ((1 lsl 53) + 1) ] ]); ([ f ], [ [ Value.Float 1. ] ]) ];
  Alcotest.(check bool) "side arity mismatch refused" true
    (Keycode.of_columns [ [| big |]; [| f; f |] ] = None);
  let uncertain =
    Column.of_cells ~ty:Value.Tint ~rows:1 ~reps:2 (fun _ r -> Value.Int r)
  in
  Alcotest.(check bool) "uncertain column refused" true
    (Keycode.of_columns [ [| uncertain |] ] = None);
  (* A sole no-null int component is zero-copy: the raw values. *)
  let vs = [ 5; min_int + 1; max_int; 5 ] in
  let raw = det_col Value.Tint (List.map (fun v -> Value.Int v) vs) in
  match Keycode.of_columns [ [| raw |] ] with
  | None -> Alcotest.fail "sole int column should encode"
  | Some enc ->
    Alcotest.(check (array int)) "raw zero-copy" (Array.of_list vs)
      (Keycode.encode enc ~side:0).Keycode.keys

let test_keycode_tbl_first_seen () =
  (* Dense first-seen ids, across a growth of the open-addressing table
     (19 distinct quadratic residues > the 16-slot initial load limit). *)
  let n = 120 in
  let vs = List.init n (fun i -> Value.Int (i * i mod 37)) in
  let enc = Option.get (Keycode.of_columns [ [| det_col Value.Tint vs |] ]) in
  let coded = Keycode.encode enc ~side:0 in
  let tbl = Keycode.tbl_create ~hint:4 coded.Keycode.keys in
  let seen = Hashtbl.create 64 in
  let ids = Array.make n 0 in
  Keycode.tbl_add_rows tbl ~skip:None ids;
  List.iteri
    (fun i v ->
      let expect =
        match Hashtbl.find_opt seen v with
        | Some id -> id
        | None ->
          let id = Hashtbl.length seen in
          Hashtbl.add seen v id;
          id
      in
      Alcotest.(check int) (Printf.sprintf "row %d id" i) expect ids.(i))
    vs;
  Alcotest.(check int) "distinct count" (Hashtbl.length seen) (Keycode.tbl_count tbl)

let test_order_by_packed_matches_comparator () =
  (* Duplicate keys and nulls: the packed image's index tiebreak must
     reproduce the comparator chain's stable order, both directions. *)
  let schema =
    Schema.of_list
      [ ("s", Value.Tstring); ("b", Value.Tbool); ("i", Value.Tint); ("x", Value.Tint) ]
  in
  let rng = Mde_prob.Rng.create ~seed:31 () in
  let names = [| "ann"; "bob"; "cal"; "dee" |] in
  let rows =
    List.init 200 (fun r ->
        [|
          (if Mde_prob.Rng.int rng 10 = 0 then Value.Null
           else Value.String names.(Mde_prob.Rng.int rng 4));
          (if Mde_prob.Rng.int rng 10 = 0 then Value.Null
           else Value.Bool (Mde_prob.Rng.int rng 2 = 1));
          (if Mde_prob.Rng.int rng 10 = 0 then Value.Null
           else Value.Int (Mde_prob.Rng.int rng 5 - 2));
          Value.Int r;
        |])
  in
  let t = Table.create schema rows in
  let c = Columnar.of_table t in
  let keys = [ "s"; "b"; "i" ] in
  List.iter
    (fun descending ->
      Alcotest.(check bool)
        (if descending then "descending" else "ascending")
        true
        (matches (Algebra.order_by ~descending keys t) (Columnar.order_by ~descending keys c)))
    [ false; true ]

let mixed_table_r rows =
  let schema =
    Schema.of_list [ ("rk", Value.Tfloat); ("rg", Value.Tint); ("rv", Value.Tfloat) ]
  in
  Table.create schema (List.map (fun (k, g, v) -> [| k; Value.Int g; v |]) rows)

(* Every deterministic storage kind a key can hold: floats with NaN
   payloads, signed zeros, infinities and values equal to ints; ints
   near 2^53 and spanning more than 2^61; small ints, bools, strings and
   nulls; two high-cardinality ints, so composites of up to 5 components
   pass one word and take the prefix-densify path. [v] is a payload. *)
let key_schema =
  Schema.of_list
    [ ("f", Value.Tfloat); ("i", Value.Tint); ("g", Value.Tint); ("b", Value.Tbool);
      ("s", Value.Tstring); ("h1", Value.Tint); ("h2", Value.Tint); ("v", Value.Tfloat) ]

let key_rows_gen =
  QCheck.Gen.(
    let big = 1 lsl 53 in
    let nullable g = frequency [ (8, g); (1, return Value.Null) ] in
    let float_of g = map (fun x -> Value.Float x) g in
    let int_of g = map (fun x -> Value.Int x) g in
    let f =
      nullable
        (frequency
           [ ( 3,
               float_of
                 (oneofl
                    [ nan; neg_nan; 0.; -0.; 1.; 1.5; -1.5; float_of_int big; infinity;
                      neg_infinity; 0x1p62 ]) );
             (2, float_of (float_range (-3.) 3.)) ])
    in
    let i = nullable (int_of (oneofl [ min_int; max_int; 0; 1; big; big + 1; -big - 1 ])) in
    let high =
      nullable
        (frequency [ (1, int_of (oneofl [ 7; 1 lsl 40 ])); (2, int_of (int_range 0 (1 lsl 40))) ])
    in
    let row =
      map
        (fun (f, i, g, b, s, h1, h2, v) -> [| f; i; g; b; s; h1; h2; v |])
        (tup8 f i
           (int_of (int_range 0 3))
           (nullable (map (fun x -> Value.Bool x) bool))
           (nullable (map (fun x -> Value.String x) (oneofl [ "ann"; "bob"; "" ])))
           high high
           (float_of (float_range (-5.) 5.)))
    in
    list_size (int_range 0 25) row)

let key_sets =
  [ []; [ "f" ]; [ "i" ]; [ "g" ]; [ "b" ]; [ "s" ]; [ "h1" ]; [ "f"; "g" ]; [ "i"; "f" ];
    [ "h1"; "h2" ]; [ "h1"; "h2"; "f" ]; [ "f"; "i"; "b"; "s"; "h1" ];
    [ "h1"; "i"; "h2"; "s"; "f" ] ]

(* Row Algebra is the boxed [Value.Tbl] / [Value.compare] implementation
   of every keyed operator. *)
let prop_packed_matches_boxed =
  QCheck.Test.make ~name:"packed keyed operators == boxed Value.Tbl paths" ~count:80
    QCheck.(
      triple (make key_rows_gen) (make key_rows_gen)
        (int_range 0 (List.length key_sets - 1)))
    (fun (ls, rs, set) ->
      let lt = Table.create key_schema ls in
      let rt =
        Algebra.rename
          (List.map (fun n -> (n, "r_" ^ n)) (Schema.column_names key_schema))
          (Table.create key_schema rs)
      in
      let keys = List.nth key_sets set in
      let pool = Mde_par.Pool.shared ~domains:2 () in
      let lc = Columnar.of_table lt and rc = Columnar.of_table rt in
      (* Int beside float across sides: one shared dictionary. *)
      let cross on =
        matches (Algebra.equi_join ~on lt rt) (Columnar.equi_join ~on lc rc)
        && matches (Algebra.equi_join ~on lt rt) (Columnar.equi_join ~pool ~on lc rc)
      in
      (* A derived float key mixing an int source and a float one; both
         sides drop the key column. *)
      let numeric = Expr.(If (col "b" = bool true, col "g" * float 1., col "f")) in
      let rows_m = Algebra.extend [ ("m", Value.Tfloat, numeric) ] lt in
      let cols_m = Columnar.extend [ ("m", Value.Tfloat, numeric) ] lc in
      let kept = Schema.column_names key_schema in
      let both = kept @ Schema.column_names (Table.schema rt) in
      let aggs = [ ("n", Algebra.Count); ("s_v", Algebra.Sum (Expr.col "v")) ] in
      keyed_ops_match_algebra lt keys
      && keyed_ops_match_algebra ~pool lt keys
      && cross [ ("i", "r_f") ]
      && cross [ ("f", "r_i"); ("g", "r_g") ]
      && cross [ ("s", "r_s"); ("h1", "r_h1"); ("i", "r_f") ]
      && matches
           (Algebra.project [ "n"; "s_v" ] (Algebra.group_by ~keys:[ "m" ] ~aggs rows_m))
           (Columnar.project [ "n"; "s_v" ] (Columnar.group_by ~keys:[ "m" ] ~aggs cols_m))
      && matches
           (Algebra.project kept (Algebra.order_by [ "m"; "v" ] rows_m))
           (Columnar.project kept (Columnar.order_by [ "m"; "v" ] cols_m))
      && Table.cardinality (Algebra.distinct (Algebra.project [ "m" ] rows_m))
         = Columnar.row_count (Columnar.distinct (Columnar.project [ "m" ] cols_m))
      && matches
           (Algebra.project both (Algebra.equi_join ~on:[ ("m", "r_f") ] rows_m rt))
           (Columnar.project both (Columnar.equi_join ~on:[ ("m", "r_f") ] cols_m rc)))

(* The same keyed operators on gather views: a select that drops rows on
   the left, an order_by that permutes the right. Each equals row
   Algebra on the equivalent tables, pooled and not. Group, distinct and
   join read their inputs through the views' indexes and force nothing,
   except the dictionary-coded key components ([f] and [i]: floats, and
   ints spanning more than 2^61), which are boxed through forced cells;
   order_by runs last, since its sort keys force their columns. *)
let prop_packed_views_match_boxed =
  QCheck.Test.make ~name:"packed keyed operators on gather views == boxed paths" ~count:80
    QCheck.(
      triple (make key_rows_gen) (make key_rows_gen)
        (int_range 0 (List.length key_sets - 1)))
    (fun (ls, rs, set) ->
      let lt = Table.create key_schema ls in
      let rt =
        Algebra.rename
          (List.map (fun n -> (n, "r_" ^ n)) (Schema.column_names key_schema))
          (Table.create key_schema rs)
      in
      let keys = List.nth key_sets set in
      let pairs = List.map (fun k -> (k, "r_" ^ k)) keys in
      let keep = Expr.(Not (col "g" = int 0)) in
      let lrows = Algebra.select keep lt
      and rrows = Algebra.order_by ~descending:true [ "r_v" ] rt in
      let aggs = [ ("n", Algebra.Count); ("s_v", Algebra.Sum (Expr.col "v")) ] in
      let may_force = List.filter (fun k -> k = "f" || k = "i") keys in
      let may_force = may_force @ List.map (fun k -> "r_" ^ k) may_force in
      let unforced c =
        List.for_all2
          (fun name col -> List.mem name may_force || not (Column.materialized col))
          (Schema.column_names (Columnar.schema c))
          (Array.to_list (Table.columns (Columnar.to_table c)))
      in
      List.for_all
        (fun pool ->
          let lv = Columnar.select keep (Columnar.of_table lt)
          and rv = Columnar.order_by ~descending:true [ "r_v" ] (Columnar.of_table rt) in
          let grouped = Columnar.group_by ?pool ~keys ~aggs lv
          and distinct = Columnar.distinct ?pool (Columnar.project keys lv)
          and joined = Columnar.equi_join ?pool ~on:pairs lv rv in
          unforced lv && unforced rv
          && matches (Algebra.group_by ~keys ~aggs lrows) grouped
          && matches (Algebra.distinct (Algebra.project keys lrows)) distinct
          && matches (Algebra.equi_join ~on:pairs lrows rrows) joined
          && matches (Algebra.order_by keys lrows) (Columnar.order_by keys lv))
        [ None; Some (Mde_par.Pool.shared ~domains:2 ()) ])

(* A lopsided join, left a tenth of right, on a composite (string, int)
   key with duplicates and Nulls in both components on both sides: the
   join hashes its left side, and with the sides swapped its right side.
   Both orientations, pooled or not, and the bundle join emit exactly
   the row oracle's pairs in its order. *)
let test_lopsided_join_orientations () =
  let rng = Mde_prob.Rng.create ~seed:23 () in
  let side prefix rows =
    let cell () =
      let s =
        if Mde_prob.Rng.int rng 12 = 0 then Value.Null
        else v_str [| "ann"; "bob"; "" |].(Mde_prob.Rng.int rng 3)
      in
      let k = if Mde_prob.Rng.int rng 12 = 0 then Value.Null else v_int (Mde_prob.Rng.int rng 6) in
      [| s; k; v_int (Mde_prob.Rng.int rng 1000) |]
    in
    Table.create
      (Schema.of_list
         [ (prefix ^ "s", Value.Tstring); (prefix ^ "k", Value.Tint); (prefix ^ "x", Value.Tint) ])
      (List.init rows (fun _ -> cell ()))
  in
  let small = side "l_" 40 and large = side "r_" 400 in
  let check label l r on =
    let oracle = Algebra.equi_join ~on l r in
    Alcotest.(check bool) (label ^ ": premise, pairs") true (Table.cardinality oracle > 40);
    Mde_par.Pool.with_pool ~domains:2 (fun p ->
        List.iter
          (fun pool ->
            Alcotest.(check bool) label true
              (matches oracle
                 (Columnar.equi_join ?pool ~on (Columnar.of_table l) (Columnar.of_table r))))
          [ None; Some p ]);
    Alcotest.(check bool) (label ^ ": bundle join") true
      (tables_identical oracle
         (Mde_mcdb.Bundle.to_instances
            (Mde_mcdb.Bundle.join ~on
               (Mde_mcdb.Bundle.of_table l ~n_reps:1)
               (Mde_mcdb.Bundle.of_table r ~n_reps:1))).(0))
  in
  check "small left hashed" small large [ ("l_s", "r_s"); ("l_k", "r_k") ];
  check "large left, right hashed" large small [ ("r_s", "l_s"); ("r_k", "l_k") ]

(* A join whose probe side spans more than one probe chunk (4096 rows),
   with Null keys on both sides, in both orientations: pooled ==
   sequential == row Algebra. The narrow key takes a direct table, the
   wide one (values 2^40 apart) a hashed table. *)
let test_pooled_probe_past_chunk () =
  let rng = Mde_prob.Rng.create ~seed:41 () in
  let side prefix rows =
    let cell () =
      let k = Mde_prob.Rng.int rng 10 in
      let key scale = if Mde_prob.Rng.int rng 15 = 0 then Value.Null else v_int (k * scale) in
      [| key 1; key (1 lsl 40); v_int (Mde_prob.Rng.int rng 1000) |]
    in
    Table.create
      (Schema.of_list
         [ (prefix ^ "n", Value.Tint); (prefix ^ "w", Value.Tint); (prefix ^ "x", Value.Tint) ])
      (List.init rows (fun _ -> cell ()))
  in
  let long = side "l_" 5000 and short = side "s_" 60 in
  Mde_par.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (label, l, r, on) ->
          let oracle = Algebra.equi_join ~on l r in
          let lc = Columnar.of_table l and rc = Columnar.of_table r in
          let seq = Columnar.equi_join ~on lc rc in
          Alcotest.(check bool) (label ^ " == algebra") true (matches oracle seq);
          Alcotest.(check bool) (label ^ " pooled == sequential") true
            (tables_identical (Columnar.to_table seq)
               (Columnar.to_table (Columnar.equi_join ~pool ~on lc rc))))
        [ ("narrow, long left", long, short, [ ("l_n", "s_n") ]);
          ("narrow, long right", short, long, [ ("s_n", "l_n") ]);
          ("wide, long left", long, short, [ ("l_w", "s_w") ]);
          ("wide, long right", short, long, [ ("s_w", "l_w") ]) ])

(* --- join pass-through ---

   A join whose left rows each match exactly once returns no left index
   ([Columnar.join_index]'s [None]), and [equi_join] keeps the left
   columns as they are. The generator builds unique right keys covering
   every left key, where the pass-through fires, and each perturbation
   of it: a left key missing on the right, a duplicated right key, a
   Null left key, an empty side, and [on = []] against one right row
   (every left row then matches once, so that one passes through too). *)
type join_kind = Cover | Missing | Dup | Null_left | Empty_left | Empty_right | Cross_one

let join_kind_name = function
  | Cover -> "cover"
  | Missing -> "missing"
  | Dup -> "dup"
  | Null_left -> "null left"
  | Empty_left -> "empty left"
  | Empty_right -> "empty right"
  | Cross_one -> "on = [] x 1"

(* Keys scaled by 1 (a direct key table) or 2^40 (hashed); the unused
   right keys make either side the larger, so both sides hold the
   table. *)
let join_case_gen =
  QCheck.Gen.(
    let* kind = oneofl [ Cover; Missing; Dup; Null_left; Empty_left; Empty_right; Cross_one ] in
    let* domain = int_range 1 12 in
    let* left = list_size (int_range 1 40) (int_bound (domain - 1)) in
    let used = List.sort_uniq compare left in
    let* extra = int_range 0 40 in
    let* cover = shuffle_l (used @ List.init extra (fun i -> domain + i)) in
    let* victim = oneofl used in
    let* at = int_bound (List.length left - 1) in
    let* scale = oneofl [ 1; 1 lsl 40 ] in
    let some = List.map (fun k -> Some (k * scale)) in
    let left = some left and cover = some cover and victim = Some (victim * scale) in
    return
      ( kind,
        match kind with
        | Cover | Cross_one -> (left, cover)
        | Missing -> (left, List.filter (( <> ) victim) cover)
        | Dup -> (left, cover @ [ victim ])
        | Null_left -> (List.mapi (fun i k -> if i = at then None else k) left, cover)
        | Empty_left -> ([], cover)
        | Empty_right -> (left, []) ))

let key_table prefix keys =
  Table.create
    (Schema.of_list [ (prefix ^ "k", Value.Tint); (prefix ^ "v", Value.Tint) ])
    (List.mapi (fun i k -> [| Option.fold ~none:Value.Null ~some:v_int k; v_int i |]) keys)

let prop_join_pass_through =
  QCheck.Test.make ~name:"join_index/equi_join == Algebra.equi_join" ~count:400
    (QCheck.make
       ~print:(fun (kind, (l, r)) ->
         let keys ks =
           String.concat "; " (List.map (Option.fold ~none:"Null" ~some:string_of_int) ks)
         in
         Printf.sprintf "%s: left [%s] right [%s]" (join_kind_name kind) (keys l) (keys r))
       join_case_gen)
    (fun (kind, (lkeys, rkeys)) ->
      let pool = Mde_par.Pool.shared ~domains:2 () in
      let cross = kind = Cross_one in
      let rkeys = if cross then [ List.hd rkeys ] else rkeys in
      (* Both orientations: the case as generated, then its sides swapped. *)
      let run (lkeys, lp) (rkeys, rp) =
        let l = key_table lp lkeys and r = key_table rp rkeys in
        let on = if cross then [] else [ (lp ^ "k", rp ^ "k") ] in
        let keys t = if cross then [||] else [| (Table.columns t).(0) |] in
        let side t = (keys t, Table.cardinality t) in
        (* The pairs by nested loops: left rows in order, each one's
           matches in right order. *)
        let pairs =
          List.concat
            (List.mapi
               (fun i lk ->
                 List.concat
                   (List.mapi
                      (fun j rk -> if cross || (lk <> None && lk = rk) then [ (i, j) ] else [])
                      rkeys))
               lkeys)
        in
        let once = List.map fst pairs = List.init (List.length lkeys) Fun.id in
        let index_ok (li, ri) =
          ri = Array.of_list (List.map snd pairs)
          &&
          match li with
          | None -> once
          | Some li -> (not once) && li = Array.of_list (List.map fst pairs)
        in
        let oracle = Algebra.equi_join ~on l r in
        let lc = Columnar.of_table l and rc = Columnar.of_table r in
        let seq = Columnar.equi_join ~on lc rc in
        let index = Columnar.join_index (side l) (side r) in
        ( index_ok index
          && index_ok (Columnar.join_index ~pool (side l) (side r))
          && matches oracle seq
          && tables_identical (Columnar.to_table seq)
               (Columnar.to_table (Columnar.equi_join ~pool ~on lc rc)),
          Option.is_none (fst index) )
      in
      let ok, passed = run (lkeys, "l") (rkeys, "r") in
      let swapped_ok, _ = run (rkeys, "r") (lkeys, "l") in
      let expect_pass = match kind with Cover | Cross_one | Empty_left -> true | _ -> false in
      ok && swapped_ok && passed = expect_pass)

(* Table ids against a first-seen [Hashtbl]: build spans on both sides
   of the direct/hashed boundary (twice the starting slot count, 32 to
   256 here), hints small enough that a hashed table grows, negative
   keys, [min_int]/[max_int] (whose span overflows), and probes below,
   inside and above the build range. *)
let tbl_keys_gen =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* hint = int_range 0 n in
    let* width = oneof [ int_range 1 40; int_range 1 400 ] in
    let* lo = oneof [ int_range (-200) 200; return min_int; return (max_int - width) ] in
    let inside = map (fun d -> lo + d) (int_bound width) in
    let extreme = oneofl [ min_int; max_int ] in
    let outside =
      map2 (fun below d -> if below then lo - 1 - d else lo + width + 1 + d) bool (int_bound 50)
    in
    let* build = list_repeat n (frequency [ (30, inside); (1, extreme) ]) in
    let* probe =
      list_size (int_range 0 40) (frequency [ (5, inside); (3, outside); (1, extreme) ])
    in
    return (hint, Array.of_list build, Array.of_list probe))

let prop_tbl_first_seen =
  QCheck.Test.make ~name:"table ids == first-seen Hashtbl" ~count:500
    (QCheck.make
       ~print:(fun (hint, b, p) ->
         let ints a = String.concat "; " (Array.to_list (Array.map string_of_int a)) in
         Printf.sprintf "hint %d build [|%s|] probe [|%s|]" hint (ints b) (ints p))
       tbl_keys_gen)
    (fun (hint, build, probe) ->
      (* Every build row and every probe row, then with every third build
         row and every fourth probe row skipped. *)
      let check ~build_every ~probe_every =
        let tbl = Keycode.tbl_create ~hint build and seen = Hashtbl.create 16 in
        let skip n every =
          if every = 0 then None else Some (Array.init n (fun i -> i mod every = every - 1))
        in
        let skipped i every = every > 0 && i mod every = every - 1 in
        let ids = Array.make (Array.length build) 0 in
        Keycode.tbl_add_rows tbl ~skip:(skip (Array.length build) build_every) ids;
        let added =
          Array.for_all Fun.id
            (Array.mapi
               (fun i k ->
                 ids.(i)
                 =
                 if skipped i build_every then -1
                 else
                   match Hashtbl.find_opt seen k with
                   | Some id -> id
                   | None ->
                     let id = Hashtbl.length seen in
                     Hashtbl.add seen k id;
                     id)
               build)
        in
        let found keys =
          let ids = Array.copy keys in
          Keycode.tbl_find_rows tbl ~skip:(skip (Array.length keys) probe_every) ids 0
            (Array.length ids);
          Array.for_all Fun.id
            (Array.mapi
               (fun i k ->
                 ids.(i)
                 =
                 if skipped i probe_every then -1
                 else Option.value (Hashtbl.find_opt seen k) ~default:(-1))
               keys)
        in
        added && Keycode.tbl_count tbl = Hashtbl.length seen && found probe && found build
      in
      check ~build_every:0 ~probe_every:0 && check ~build_every:3 ~probe_every:4)

(* Keys without a narrow native code — floats, an inexact int beside a
   float, the empty key — take the dictionary
   and constant codes of each keyed operator's one packed path; each
   must still match row Algebra. *)
let test_dictionary_keys_match_algebra () =
  let rng = Mde_prob.Rng.create ~seed:77 () in
  let t =
    mixed_table
      (List.init 300 (fun i ->
           ( (if i mod 11 = 0 then Value.Null
              else Value.Float (float_of_int (Mde_prob.Rng.int rng 6) /. 2.)),
             Mde_prob.Rng.int rng 4,
             Value.Float (Mde_prob.Rng.float_range rng (-1.) 1.) )))
  in
  let c = Columnar.of_table t in
  let aggs = [ ("n", Algebra.Count); ("s", Algebra.Sum (Expr.col "v")) ] in
  let check label oracle out = Alcotest.(check bool) label true (matches oracle out) in
  check "keyless global group_by"
    (Algebra.group_by ~keys:[] ~aggs t)
    (Columnar.group_by ~keys:[] ~aggs c);
  List.iter
    (fun descending ->
      check "float sort key"
        (Algebra.order_by ~descending [ "k"; "g" ] t)
        (Columnar.order_by ~descending [ "k"; "g" ] c))
    [ false; true ];
  check "zero-column distinct"
    (Algebra.distinct (Algebra.project [] t))
    (Columnar.distinct (Columnar.project [] c));
  (* 2^53 + 1 has no exact float image: it must not meet Float 2^53. *)
  let big = 1 lsl 53 in
  let ints =
    Table.create
      (Schema.of_list [ ("i", Value.Tint) ])
      [ [| Value.Int (big + 1) |]; [| Value.Int big |]; [| Value.Int 3 |]; [| Value.Null |] ]
  in
  let floats =
    Table.create
      (Schema.of_list [ ("f", Value.Tfloat); ("y", Value.Tint) ])
      [ [| Value.Float (float_of_int big); Value.Int 0 |];
        [| Value.Float 3.; Value.Int 1 |];
        [| Value.Float nan; Value.Int 2 |] ]
  in
  check "inexact int joined to a float"
    (Algebra.equi_join ~on:[ ("i", "f") ] ints floats)
    (Columnar.equi_join ~on:[ ("i", "f") ] (Columnar.of_table ints)
       (Columnar.of_table floats))

let test_keyed_pooled_identity () =
  (* Sizes straddling the pooled chunk boundaries; NaN and Null keys. *)
  let table_pair n =
    let rng = Mde_prob.Rng.create ~seed:(9000 + n) () in
    let cell i =
      if i mod 19 = 0 then Value.Null
      else if i mod 13 = 0 then Value.Float nan
      else Value.Float (Mde_prob.Rng.float_range rng (-4.) 4.)
    in
    let lt =
      mixed_table
        (List.init n (fun i ->
             ( cell i,
               Mde_prob.Rng.int rng 5,
               Value.Float (Mde_prob.Rng.float_range rng (-1.) 1.) )))
    in
    let rt =
      mixed_table_r
        (List.init (max 1 (n / 3)) (fun i -> (cell i, Mde_prob.Rng.int rng 5, Value.Null)))
    in
    (Columnar.of_table lt, Columnar.of_table rt)
  in
  let aggs =
    [ ("n", Algebra.Count); ("s", Algebra.Sum (Expr.col "v"));
      ("sd", Algebra.Std (Expr.col "v")) ]
  in
  Mde_par.Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun n ->
          let lc, rc = table_pair n in
          let check label a b =
            Alcotest.(check bool)
              (Printf.sprintf "%s pooled == sequential (n=%d)" label n)
              true
              (tables_identical (Columnar.to_table a) (Columnar.to_table b))
          in
          check "group_by"
            (Columnar.group_by ~keys:[ "k"; "g" ] ~aggs lc)
            (Columnar.group_by ~pool ~keys:[ "k"; "g" ] ~aggs lc);
          (* The keyless global aggregate's own single-group loop. *)
          check "global group_by"
            (Columnar.group_by ~keys:[] ~aggs lc)
            (Columnar.group_by ~pool ~keys:[] ~aggs lc);
          check "join"
            (Columnar.equi_join ~on:[ ("k", "rk") ] lc rc)
            (Columnar.equi_join ~pool ~on:[ ("k", "rk") ] lc rc);
          check "join on ints"
            (Columnar.equi_join ~on:[ ("g", "rg") ] lc rc)
            (Columnar.equi_join ~pool ~on:[ ("g", "rg") ] lc rc);
          check "distinct" (Columnar.distinct lc) (Columnar.distinct ~pool lc))
        [ 0; 1; 2; 3; 7; 61; 509; 2048 ])

(* --- query pipelines on the columnar engine --- *)

let test_query_pipeline () =
  let n =
    Columnar.of_table people
    |> Columnar.select Expr.(col "age" > int 10)
    |> Columnar.group_by ~keys:[] ~aggs:[ ("n", Algebra.Count) ]
    |> Columnar.to_table
  in
  Alcotest.(check int) "adults" 3 (Value.to_int (Table.get n 0 "n"))

let test_query_join_compute () =
  let result =
    Columnar.equi_join ~on:[ ("customer", "id") ] (Columnar.of_table orders)
      (Columnar.project [ "id"; "score" ] (Columnar.of_table people))
    |> Columnar.extend [ ("weighted", Value.Tfloat, Expr.(col "total" * col "score")) ]
    |> Columnar.order_by ~descending:true [ "weighted" ]
    |> Columnar.to_table
  in
  Alcotest.(check int) "joined rows" 3 (Table.cardinality result);
  Alcotest.(check (float 1e-9)) "top weighted" 150. (Value.to_float (Table.get result 0 "weighted"))

(* --- logical plans and the optimizer --- *)

let star_catalog ?(orders_n = 300) ?(customers_n = 40) ?(regions_n = 5) seed =
  let rng = Mde_prob.Rng.create ~seed () in
  let cat = Catalog.create () in
  Catalog.register cat "regions"
    (Table.create
       (Schema.of_list [ ("rid", Value.Tint); ("rname", Value.Tstring) ])
       (List.init regions_n (fun i -> [| v_int i; v_str (Printf.sprintf "r%d" i) |])));
  Catalog.register cat "customers"
    (Table.create
       (Schema.of_list [ ("cid", Value.Tint); ("crid", Value.Tint); ("cage", Value.Tint) ])
       (List.init customers_n (fun i ->
            [| v_int i; v_int (Mde_prob.Rng.int rng regions_n);
               v_int (18 + Mde_prob.Rng.int rng 60) |])));
  Catalog.register cat "orders"
    (Table.create
       (Schema.of_list [ ("oid", Value.Tint); ("ocid", Value.Tint); ("amount", Value.Tfloat) ])
       (List.init orders_n (fun i ->
            [| v_int i; v_int (Mde_prob.Rng.int rng customers_n);
               v_float (Mde_prob.Rng.float_range rng 0. 100.) |])));
  cat

(* Compare result multisets up to row order AND column order: join
   reordering legitimately permutes output columns. *)
let sorted_rows table =
  let names = List.sort String.compare (Schema.column_names (Table.schema table)) in
  let canonical = Algebra.project names table in
  Array.to_list (Table.rows canonical)
  |> List.map Array.to_list
  |> List.sort (fun a b -> List.compare Value.compare a b)

let same_multiset a b = sorted_rows a = sorted_rows b

let star_query =
  Plan.select
    Expr.(col "rname" = string "r1" && col "amount" > float 50.)
    (Plan.join ~on:[ ("rid", "crid") ]
       (Plan.scan "regions")
       (Plan.join ~on:[ ("cid", "ocid") ] (Plan.scan "customers") (Plan.scan "orders")))

let test_plan_execute () =
  let cat = star_catalog 1 in
  let direct =
    Algebra.equi_join ~on:[ ("rid", "crid") ]
      (Catalog.find cat "regions")
      (Algebra.equi_join ~on:[ ("cid", "ocid") ]
         (Catalog.find cat "customers")
         (Catalog.find cat "orders"))
    |> Algebra.select Expr.(col "rname" = string "r1" && col "amount" > float 50.)
  in
  Alcotest.(check bool) "plan = direct algebra" true
    (same_multiset (Plan.execute cat star_query) direct)

let test_plan_schema () =
  let cat = star_catalog 2 in
  Alcotest.(check int) "join schema arity" 8
    (Schema.arity (Plan.schema_of cat star_query));
  Alcotest.(check int) "project narrows" 2
    (Schema.arity (Plan.schema_of cat (Plan.project [ "oid"; "rname" ] star_query)))

let test_estimate_rows_sanity () =
  let cat = star_catalog 3 in
  let scan_est = Plan.estimate_rows cat (Plan.scan "orders") in
  Alcotest.(check (float 1e-9)) "scan = row count" 300. scan_est;
  (* Equality on a 5-distinct column selects ~1/5. *)
  let eq_est =
    Plan.estimate_rows cat
      (Plan.select Expr.(col "rid" = int 3) (Plan.scan "regions"))
  in
  Alcotest.(check (float 1e-6)) "eq selectivity" 1. eq_est

let test_push_selections_preserves_and_helps () =
  let cat = star_catalog 4 in
  let pushed = Plan.push_selections cat star_query in
  Alcotest.(check bool) "same result" true
    (same_multiset (Plan.execute cat star_query) (Plan.execute cat pushed));
  let before = (Plan.estimate_cost cat star_query).Plan.intermediate_rows in
  let after = (Plan.estimate_cost cat pushed).Plan.intermediate_rows in
  Alcotest.(check bool)
    (Printf.sprintf "cheaper (%.0f -> %.0f)" before after)
    true (after < before)

let test_order_joins_small_first () =
  let cat = star_catalog 5 in
  (* A deliberately bad order: the two big tables first. *)
  let bad =
    Plan.join ~on:[ ("crid", "rid") ]
      (Plan.join ~on:[ ("ocid", "cid") ] (Plan.scan "orders") (Plan.scan "customers"))
      (Plan.select Expr.(col "rname" = string "r2") (Plan.scan "regions"))
  in
  let reordered = Plan.order_joins cat bad in
  Alcotest.(check bool) "same result" true
    (same_multiset (Plan.execute cat bad) (Plan.execute cat reordered));
  let before = (Plan.estimate_cost cat bad).Plan.intermediate_rows in
  let after = (Plan.estimate_cost cat reordered).Plan.intermediate_rows in
  Alcotest.(check bool)
    (Printf.sprintf "join order cheaper (%.0f -> %.0f)" before after)
    true (after <= before)

let test_optimize_end_to_end () =
  let cat = star_catalog 6 in
  let optimized = Plan.optimize cat star_query in
  Alcotest.(check bool) "same result" true
    (same_multiset (Plan.execute cat star_query) (Plan.execute cat optimized));
  let before = (Plan.estimate_cost cat star_query).Plan.intermediate_rows in
  let after = (Plan.estimate_cost cat optimized).Plan.intermediate_rows in
  Alcotest.(check bool)
    (Printf.sprintf "optimize cheaper (%.0f -> %.0f)" before after)
    true (after < before /. 2.)

let test_plan_columnar_identity () =
  let cat = star_catalog 7 in
  let check_plan label plan =
    let oracle = Plan.execute_rows cat plan in
    Alcotest.(check bool) (label ^ ": columnar == rows") true
      (tables_identical oracle (Plan.execute cat plan))
  in
  check_plan "raw" star_query;
  (* An always-Null branch takes the other's kind. *)
  check_plan "typed-Null predicate"
    (Plan.select
       Expr.(If (col "amount" > float 25., col "amount", Lit Value.Null) > float 30.)
       star_query);
  check_plan "optimized" (Plan.optimize cat star_query);
  check_plan "projected" (Plan.project [ "oid"; "rname" ] star_query)

let prop_plan_execute_bit_identity =
  QCheck.Test.make ~name:"Plan.execute (columnar) == Plan.execute_rows" ~count:40
    QCheck.(pair (int_range 0 4) small_int)
    (fun (region_pick, seed) ->
      let cat = star_catalog (200 + seed) in
      let plan =
        Plan.select
          Expr.(col "rid" = int region_pick && col "amount" > float 25.)
          (Plan.join ~on:[ ("rid", "crid") ]
             (Plan.scan "regions")
             (Plan.join ~on:[ ("cid", "ocid") ] (Plan.scan "customers")
                (Plan.scan "orders")))
      in
      let oracle = Plan.execute_rows cat plan in
      tables_identical oracle (Plan.execute cat plan)
      && tables_identical
           (Plan.execute_rows cat (Plan.optimize cat plan))
           (Plan.execute cat (Plan.optimize cat plan)))

(* Regression: a top-level chain that cannot be reordered (it needs a
   cross product) used to come back entirely untouched — including the
   badly-ordered connected join chain nested inside it. *)
let test_order_joins_disconnected_chain () =
  let cat = star_catalog 8 in
  Catalog.register cat "lonely"
    (Table.create
       (Schema.of_list [ ("lid", Value.Tint) ])
       (List.init 3 (fun i -> [| v_int i |])));
  let bad_chain =
    Plan.join ~on:[ ("crid", "rid") ]
      (Plan.join ~on:[ ("ocid", "cid") ] (Plan.scan "orders") (Plan.scan "customers"))
      (Plan.scan "regions")
  in
  let disconnected = Plan.join ~on:[] bad_chain (Plan.scan "lonely") in
  let result = Plan.order_joins cat disconnected in
  (match result with
  | Plan.Join ([], l, Plan.Scan "lonely") ->
    Alcotest.(check bool) "nested chain reordered in place" true
      (l = Plan.order_joins cat bad_chain);
    Alcotest.(check bool) "reordering actually changed the sub-chain" true
      (l <> bad_chain);
    let before = (Plan.estimate_cost cat bad_chain).Plan.intermediate_rows in
    let after = (Plan.estimate_cost cat l).Plan.intermediate_rows in
    Alcotest.(check bool)
      (Printf.sprintf "sub-chain cheaper (%.0f -> %.0f)" before after)
      true (after <= before)
  | _ -> Alcotest.fail "optimizer changed the disconnected top-level join shape");
  Alcotest.(check bool) "same result" true
    (same_multiset (Plan.execute_rows cat disconnected) (Plan.execute_rows cat result));
  Alcotest.(check bool) "columnar cross product agrees" true
    (tables_identical (Plan.execute_rows cat result) (Plan.execute cat result))

(* Every join of the optimized star query has the larger estimate on
   its left, the probe side, so the fact table is the leftmost leaf.
   Flipping joins changes no cost figure, and the optimized plan runs
   bit-identically on the columnar and row executors. *)
let rec swapped = function
  | Plan.Join (on, l, r) -> Plan.Join (List.map (fun (a, b) -> (b, a)) on, swapped r, swapped l)
  | Plan.Select (e, c) -> Plan.Select (e, swapped c)
  | Plan.Project (cols, c) -> Plan.Project (cols, swapped c)
  | Plan.Scan _ as scan -> scan

let test_optimize_larger_input_left () =
  List.iter
    (fun orders_n ->
      let cat = star_catalog ~orders_n 9 in
      let optimized = Plan.optimize cat star_query in
      let rec check_joins = function
        | Plan.Join (_, l, r) ->
          Alcotest.(check bool) "left estimate >= right estimate" true
            (Plan.estimate_rows cat l >= Plan.estimate_rows cat r);
          check_joins l;
          check_joins r
        | _ -> ()
      in
      check_joins optimized;
      let rec leftmost = function Plan.Join (_, l, _) -> leftmost l | leaf -> leaf in
      Alcotest.(check bool) "fact table leftmost" true
        (Schema.mem (Plan.schema_of cat (leftmost optimized)) "oid");
      Alcotest.(check bool) "flipping keeps every cost figure" true
        (Plan.estimate_cost cat optimized = Plan.estimate_cost cat (swapped optimized));
      let rows = Plan.execute_rows cat optimized in
      Alcotest.(check bool) "optimized: columnar == rows" true
        (tables_identical rows (Plan.execute cat optimized));
      Mde_par.Pool.with_pool ~domains:2 (fun pool ->
          Alcotest.(check bool) "optimized: pooled == rows" true
            (tables_identical rows (Plan.execute ~pool cat optimized))))
    [ 300; 3000 ]

(* The perfbench analytic shape, small: a fact table keyed into a store
   dimension on (region, store) and a day dimension on day. *)
let composite_star_catalog ~sales_n =
  let rng = Mde_prob.Rng.create ~seed:51 () in
  let regions = [| "north"; "south"; "east"; "west"; "central"; "coast"; "hills"; "plains" |] in
  let cat = Catalog.create () in
  Catalog.register cat "sales"
    (Table.create
       (Schema.of_list
          [ ("region", Value.Tstring); ("store", Value.Tint); ("day", Value.Tint);
            ("amount", Value.Tfloat) ])
       (List.init sales_n (fun _ ->
            [| v_str regions.(Mde_prob.Rng.int rng 8); v_int (Mde_prob.Rng.int rng 50);
               v_int (Mde_prob.Rng.int rng 365); v_float (Mde_prob.Rng.float_range rng 0. 1000.) |])));
  Catalog.register cat "stores"
    (Table.create
       (Schema.of_list [ ("s_region", Value.Tstring); ("s_store", Value.Tint); ("size", Value.Tint) ])
       (List.concat_map
          (fun r -> List.init 50 (fun s -> [| v_str r; v_int s; v_int (1 + Mde_prob.Rng.int rng 5) |]))
          (Array.to_list regions)));
  Catalog.register cat "days"
    (Table.create
       (Schema.of_list [ ("d_day", Value.Tint); ("month", Value.Tint) ])
       (List.init 365 (fun d -> [| v_int d; v_int (1 + (d / 31)) |])));
  cat

(* A composite key is as selective as the product of its columns'
   counts, not as its most selective column: an unfiltered fact ⋈
   dimension join on (region, store), each fact row matching one store,
   is estimated within 2x of its true size (dividing by the store
   column's 50 alone read 8x). *)
let test_composite_join_estimate () =
  let cat = composite_star_catalog ~sales_n:4000 in
  let join =
    Plan.join ~on:[ ("region", "s_region"); ("store", "s_store") ] (Plan.scan "sales") (Plan.scan "stores")
  in
  let truth = float_of_int (Table.cardinality (Plan.execute_rows cat join)) in
  let estimate = Plan.estimate_rows cat join in
  Alcotest.(check int) "every sale has its store" 4000 (int_of_float truth);
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f within 2x of %.0f" estimate truth)
    true
    (estimate <= 2. *. truth && estimate >= truth /. 2.)

(* The analytic shape still optimizes to (σ sales ⋈ σ stores) ⋈ days,
   with the fact table probing both joins. *)
let test_optimize_analytic_shape () =
  let cat = composite_star_catalog ~sales_n:4000 in
  let plan =
    Plan.select
      Expr.(col "amount" >= float 500. && col "size" >= int 2)
      (Plan.join ~on:[ ("day", "d_day") ]
         (Plan.join
            ~on:[ ("region", "s_region"); ("store", "s_store") ]
            (Plan.scan "sales") (Plan.scan "stores"))
         (Plan.scan "days"))
  in
  match Plan.optimize cat plan with
  | Plan.Join
      ( [ ("day", "d_day") ],
        Plan.Join
          ( [ ("region", "s_region"); ("store", "s_store") ],
            Plan.Select (_, Plan.Scan "sales"),
            Plan.Select (_, Plan.Scan "stores") ),
        Plan.Scan "days" ) ->
    ()
  | other -> Alcotest.failf "optimized to %a" Plan.pp other

let prop_optimize_preserves_semantics =
  QCheck.Test.make ~name:"optimize preserves query results" ~count:60
    QCheck.(triple (int_range 0 4) (int_range 20 60) small_int)
    (fun (region_pick, amount_cut, seed) ->
      let cat = star_catalog (100 + seed) in
      let plan =
        Plan.select
          Expr.(
            col "rid" = int region_pick
            && col "amount" > float (float_of_int amount_cut)
            && col "cage" < int 60)
          (Plan.join ~on:[ ("rid", "crid") ]
             (Plan.scan "regions")
             (Plan.join ~on:[ ("cid", "ocid") ] (Plan.scan "customers")
                (Plan.scan "orders")))
      in
      same_multiset (Plan.execute cat plan) (Plan.execute cat (Plan.optimize cat plan)))

(* --- catalog --- *)

let test_catalog () =
  let cat = Catalog.create () in
  Catalog.register cat "people" people;
  Alcotest.(check int) "rows" 5 (Catalog.row_count cat "people");
  let stats = Catalog.column_stats cat "people" "age" in
  Alcotest.(check int) "non_null" 5 stats.Catalog.non_null;
  Alcotest.(check int) "distinct" 4 stats.Catalog.distinct;
  Alcotest.(check (float 1e-9)) "mean" 25.6 (Option.get stats.Catalog.mean);
  let score_stats = Catalog.column_stats cat "people" "score" in
  Alcotest.(check int) "nulls dropped" 4 score_stats.Catalog.non_null;
  Catalog.drop cat "people";
  Alcotest.(check bool) "dropped" true (Catalog.find_opt cat "people" = None)

(* --- table images: row-backed and column-backed --- *)

(* [Columnar.to_table] keeps the type check [Table.of_rows] made on the
   rows it used to build, and raises at [to_table] time: the table it
   returns has never built a row when the exception would fire. *)
(* An extend definition must be of its declared type or always Null. A
   mismatch raises when the definitions are bound, in both engines and
   over no rows, so no mistyped column reaches [to_table]. *)
let test_extend_declared_types () =
  let schema = Schema.of_list [ ("a", Value.Tint); ("f", Value.Tfloat) ] in
  let t =
    Table.create schema
      [ [| v_int 1; v_float 0.5 |]; [| v_int 2; Value.Null |]; [| v_int 3; v_float (-0.) |] ]
  in
  let c = Columnar.of_table t in
  let none = Columnar.select Expr.(col "a" > int 9) c in
  let raises msg defs =
    List.iter
      (fun (engine, run) ->
        Alcotest.check_raises (engine ^ ": " ^ msg) (Invalid_argument msg) (fun () -> ignore (run ())))
      [ ("algebra", fun () -> Table.cardinality (Algebra.extend defs t));
        ("columnar", fun () -> Columnar.row_count (Columnar.extend defs c));
        ("columnar, no rows", fun () -> Columnar.row_count (Columnar.extend defs none)) ]
  in
  raises "Expr: (a + 1) is int, expected float" [ ("x", Value.Tfloat, Expr.(col "a" + int 1)) ];
  raises "Expr: (IF (a = 1) THEN f ELSE 0) has branches of kinds float and int"
    [ ("x", Value.Tfloat, Expr.(If (col "a" = int 1, col "f", int 0))) ];
  (* Definitions are typed in order, before any is evaluated. *)
  raises "Expr: (IF (a = 1) THEN 5 ELSE NULL) is int, expected string"
    [ ("x", Value.Tfloat, Expr.(col "f" * float 2.));
      ("y", Value.Tstring, Expr.(If (col "a" = int 1, int 5, Lit Value.Null))) ];
  (* Always Null: a column of the declared type, all Null. *)
  let nulls = [ ("x", Value.Tstring, Expr.(Lit Value.Null + col "a")) ] in
  let out = Columnar.to_table (Columnar.extend nulls c) in
  Alcotest.(check bool) "all-Null column == algebra" true
    (tables_identical (Algebra.extend nulls t) out);
  Alcotest.(check bool) "stored as declared" true
    (Column.storage_ty (Table.columns out).(2) = Value.Tstring)

let image_schema =
  Schema.of_list
    [ ("f", Value.Tfloat); ("i", Value.Tint); ("s", Value.Tstring); ("b", Value.Tbool);
      ("j", Value.Tint) ]

(* One row per element: float (NaN payloads, -0., Null), int (extremes,
   Null), string ("" and Null), bool (Null), and a second int column.
   Zero rows included. *)
let image_rows_gen =
  QCheck.Gen.(
    let null_or g = frequency [ (5, g); (1, return Value.Null) ] in
    let vf =
      null_or
        (frequency
           [ (5, map v_float (float_range (-3.) 3.)); (1, return (v_float (-0.)));
             (1, return (v_float nan)); (1, return (v_float neg_nan)) ])
    in
    let vi =
      null_or
        (frequency
           [ (5, map v_int (int_range (-9) 9)); (1, oneofl [ v_int min_int; v_int max_int ]) ])
    in
    let vs = null_or (map v_str (oneofl [ ""; "a"; "bb"; "a b" ])) in
    let vb = null_or (map (fun b -> Value.Bool b) bool) in
    let row = map (fun (f, i, s, b, x) -> [| f; i; s; b; x |]) (tup5 vf vi vs vb vi) in
    map Array.of_list (list_size (int_range 0 25) row))

(* The same cells as a column-backed table. *)
let column_backed rows =
  let n = Array.length rows in
  let cols =
    Array.of_list
      (List.mapi
         (fun j (c : Schema.column) ->
           Column.of_det_cells ~ty:c.ty ~rows:n ~reps:1 (fun i -> rows.(i).(j)))
         (Schema.columns image_schema))
  in
  (Table.of_columns image_schema ~rows:n cols, cols)

let rows_identical a b =
  Array.length a = Array.length b && Array.for_all2 (Array.for_all2 value_identical) a b

let outcome f = try Ok (f ()) with Invalid_argument m -> Error m

let prop_table_images_agree =
  QCheck.Test.make ~name:"row-backed and column-backed tables read identically" ~count:150
    (QCheck.make image_rows_gen) (fun rows ->
      let n = Array.length rows in
      let rt = Table.of_rows image_schema rows in
      let ct, cols = column_backed rows in
      let eager = Array.init n (fun i -> Array.map (fun c -> Column.value c i 0) cols) in
      let names = Schema.column_names image_schema in
      let floats_same a b =
        match (a, b) with
        | Ok a, Ok b ->
          Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b
        | Error a, Error b -> a = b
        | _ -> false
      in
      let pp t = Format.asprintf "%a" (Table.pp ~max_rows:10) t in
      Table.cardinality ct = n
      && rows_identical eager rows
      && rows_identical (Table.rows ct) eager
      && rows_identical
           (Table.rows
              (Columnar.to_table (Columnar.of_table (Table.of_rows image_schema rows))))
           rows
      && List.for_all
           (fun name ->
             Array.for_all2 value_identical (Table.column rt name) (Table.column ct name)
             && floats_same
                  (outcome (fun () -> Table.column_floats rt name))
                  (outcome (fun () -> Table.column_floats ct name))
             && List.for_all
                  (fun i -> value_identical (Table.get rt i name) (Table.get ct i name))
                  (List.init n Fun.id))
           names
      && rows_identical (Table.rows (Table.append rt ct)) (Table.rows (Table.append ct rt))
      && rows_identical (Table.rows (Table.append ct ct)) (Array.append rows rows)
      && pp rt = pp ct)

let test_columnar_shares_images () =
  let c = Columnar.of_table people in
  let cols = Table.columns people in
  Alcotest.(check bool) "of_table (to_table c) shares c's columns" true
    (Table.columns (Columnar.to_table (Columnar.of_table (Columnar.to_table c))) == cols);
  let cat = star_catalog 3 in
  let orders = Catalog.find cat "orders" in
  let first = Table.columns (Columnar.to_table (Columnar.of_table orders)) in
  ignore (Plan.execute cat star_query);
  Alcotest.(check bool) "a second of_table on a catalog table reuses the image" true
    (Table.columns (Columnar.to_table (Columnar.of_table orders)) == first);
  Alcotest.(check bool) "Plan.execute scans the cached image" true
    (Table.columns orders == first)

let test_to_table_builds_no_rows () =
  let rng = Mde_prob.Rng.create ~seed:5 () in
  let t =
    Table.create
      (Schema.of_list
         [ ("a", Value.Tint); ("b", Value.Tfloat); ("c", Value.Tstring); ("d", Value.Tbool);
           ("e", Value.Tfloat) ])
      (List.init 10_000 (fun i ->
           [| v_int i; v_float (Mde_prob.Rng.float rng); v_str (string_of_int (i mod 7));
              Value.Bool (i mod 3 = 0);
              (if i mod 11 = 0 then Value.Null else v_float (float_of_int i)) |]))
  in
  let result = Columnar.select Expr.(col "b" >= float 0.) (Columnar.of_table t) in
  let w0 = Gc.minor_words () in
  let back = Columnar.of_table (Columnar.to_table result) in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "all rows kept" 10_000 (Columnar.row_count back);
  Alcotest.(check bool) (Printf.sprintf "to_table + of_table: %.0f minor words < 1000" words)
    true (words < 1000.)

(* Many domains reading one fresh table at once: every reader gets the
   single published image, whichever domain built it. *)
let test_table_images_domain_safe () =
  let rows =
    Array.init 3000 (fun i ->
        [| v_float (float_of_int i /. 7.); v_int (i mod 13); v_str (string_of_int (i mod 5));
           Value.Bool (i mod 2 = 0); (if i mod 17 = 0 then Value.Null else v_int i) |])
  in
  let fresh_tables () =
    [
      ("row-backed", Table.of_rows image_schema rows);
      ("column-backed", fst (column_backed rows));
    ]
  in
  Mde_par.Pool.with_pool ~domains:2 (fun pool ->
      for _ = 1 to 5 do
        List.iter
          (fun (label, t) ->
            let chunks = 16 in
            let seen_rows = Array.make chunks [||] and seen_cols = Array.make chunks [||] in
            Mde_par.Pool.parallel_iter pool ~site:"test.table_images" ~chunk:1 chunks (fun k ->
                if k mod 2 = 0 then begin
                  seen_rows.(k) <- Table.rows t;
                  seen_cols.(k) <- Table.columns (Columnar.to_table (Columnar.of_table t))
                end
                else begin
                  seen_cols.(k) <- Table.columns (Columnar.to_table (Columnar.of_table t));
                  seen_rows.(k) <- Table.rows t
                end);
            let published_rows = Table.rows t and published_cols = Table.columns t in
            Alcotest.(check bool) (label ^ ": contents equal") true
              (rows_identical published_rows rows);
            Array.iteri
              (fun k r ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: chunk %d rows published" label k)
                  true (r == published_rows);
                Alcotest.(check bool) (Printf.sprintf "%s: chunk %d columns published" label k)
                  true
                  (seen_cols.(k) == published_cols))
              seen_rows;
            Alcotest.(check bool) (label ^ ": later of_table returns the image") true
              (Table.columns (Columnar.to_table (Columnar.of_table t)) == published_cols))
          (fresh_tables ())
      done)

(* --- late materialization: gathered columns are views --- *)

(* One column of every storage kind: floats (NaN payloads, -0.), ints,
   bools and strings with nulls, each deterministic or uncertain over
   [reps] repetitions as Bundle lays them out. Kind 4 mixes ints,
   strings and floats under the int type: cells no column can hold. *)
type view_col = { kind : int; vreps : int; vrows : int; cells : Value.t array }

let col_gen kinds =
  QCheck.Gen.(
    let null_or g = frequency [ (4, g); (1, return Value.Null) ] in
    let cell = function
      | 0 ->
        null_or
          (frequency
             [ (4, map v_float (float_range (-3.) 3.)); (1, return (v_float (-0.)));
               (1, return (v_float nan)); (1, return (v_float neg_nan)) ])
      | 1 -> null_or (map v_int (int_range (-4) 4))
      | 2 -> null_or (map (fun b -> Value.Bool b) bool)
      | 3 -> null_or (map v_str (oneofl [ ""; "a"; "bb" ]))
      | _ ->
        null_or
          (oneof [ map v_int (int_range 0 3); map v_str (oneofl [ "x"; "y" ]);
                   return (v_float nan) ])
    in
    kinds >>= fun kind ->
    oneofl [ 1; 3 ] >>= fun vreps ->
    int_range 0 12 >>= fun vrows ->
    map (fun cells -> { kind; vreps; vrows; cells = Array.of_list cells })
      (list_repeat (vrows * vreps) (cell kind)))

let view_col_gen = col_gen (QCheck.Gen.int_range 0 3)
let mixed_col_gen = col_gen (QCheck.Gen.int_range 0 4)
let column_ty = [| Value.Tfloat; Value.Tint; Value.Tbool; Value.Tstring; Value.Tint |]

(* Det kinds read slot [i * reps]; an uncertain column reads every slot. *)
let build_view_col ~uncertain v =
  let reps = v.vreps in
  if uncertain then
    Column.of_cells ~ty:column_ty.(v.kind) ~rows:v.vrows ~reps (fun i r -> v.cells.((i * reps) + r))
  else Column.of_det_cells ~ty:column_ty.(v.kind) ~rows:v.vrows ~reps (fun i -> v.cells.(i * reps))

(* A chain step: random indices (repeats, possibly empty) or a full
   permutation of the current rows, drawn from a seed. *)
let chain_step ~rows (perm, seed, len) =
  let st = Random.State.make [| seed |] in
  if perm then begin
    let a = Array.init rows Fun.id in
    for i = rows - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  end
  else if rows = 0 then [||]
  else Array.init len (fun _ -> Random.State.int st rows)

(* --- column builder and realizations --------------------------------

   One typed builder fills every column; [of_cells] and
   [of_realizations] decide determinism by [Value.identical], so a read
   returns exactly the cell that went in, signed zeros and NaN payloads
   included, and a cell of another type raises. *)

let check_cells msg col v =
  for i = 0 to v.vrows - 1 do
    for r = 0 to v.vreps - 1 do
      let want = v.cells.((i * v.vreps) + r) and got = Column.value col i r in
      if not (Value.identical want got) then
        QCheck.Test.fail_reportf "%s: cell (%d,%d) %s read back as %s" msg i r
          (Format.asprintf "%a" Value.pp want) (Format.asprintf "%a" Value.pp got)
    done
  done

let prop_builder_round_trip =
  QCheck.Test.make ~name:"builder: cells read back identical, mistyped raise" ~count:300
    (QCheck.make mixed_col_gen)
    (fun v ->
      let ty = column_ty.(v.kind) in
      (* Room for one row, so pushes grow the buffers. *)
      let b = Column.builder ~ty ~det:false ~reps:v.vreps ~rows:1 in
      let fits = function
        | Value.Null -> true
        | c -> Value.type_of c = Some ty
      in
      match Array.iter (Column.push b) v.cells with
      | () ->
        let col = Column.finish b in
        check_cells "builder" col v;
        Array.for_all fits v.cells && Column.rows col = v.vrows && Column.storage_ty col = ty
      | exception Invalid_argument _ -> not (Array.for_all fits v.cells))

let prop_of_cells_identical =
  QCheck.Test.make ~name:"of_cells: det iff identical across reps, bits kept" ~count:300
    (QCheck.make mixed_col_gen)
    (fun v ->
      let ty = column_ty.(v.kind) in
      let fits c = Value.is_null c || Value.type_of c = Some ty in
      match
        Column.of_cells ~ty ~rows:v.vrows ~reps:v.vreps (fun i r -> v.cells.((i * v.vreps) + r))
      with
      | exception Invalid_argument _ -> not (Array.for_all fits v.cells)
      | col ->
        check_cells "of_cells" col v;
        let stable =
          List.for_all
            (fun i ->
              List.for_all
                (fun r -> Value.identical v.cells.(i * v.vreps) v.cells.((i * v.vreps) + r))
                (List.init v.vreps Fun.id))
            (List.init v.vrows Fun.id)
        in
        Array.for_all fits v.cells && Column.det col = stable)

let test_of_cells_signed_zero () =
  (* [Value.equal] calls these cells equal; a deterministic column would
     read rep 0's bits for rep 1. *)
  let cells = [| [| v_float 0.; v_float (-0.) |]; [| v_float nan; v_float neg_nan |] |] in
  let col = Column.of_cells ~ty:Value.Tfloat ~rows:2 ~reps:2 (fun i r -> cells.(i).(r)) in
  Alcotest.(check bool) "uncertain" false (Column.det col);
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun r want ->
          Alcotest.(check bool)
            (Printf.sprintf "cell (%d,%d) keeps its bits" i r)
            true
            (Value.identical want (Column.value col i r)))
        row)
    cells

let test_of_realizations_sharing () =
  let det cells =
    Column.of_det_cells ~ty:Value.Tstring ~rows:(Array.length cells) ~reps:1 (fun i ->
        cells.(i))
  in
  let a = det [| v_str "x"; Value.Null; v_str "y" |] in
  let shared = Column.of_realizations ~ty:Value.Tstring [| a; a; a |] in
  Alcotest.(check bool) "one column: deterministic" true (Column.det shared);
  Alcotest.(check int) "reps" 3 (Column.reps shared);
  (* Equal cells under another dictionary order are still identical. *)
  let b = det [| v_str "x"; Value.Null; v_str "y" |] in
  let c = (Column.gather [| det [| v_str "y"; Value.Null; v_str "x" |] |] [| 2; 1; 0 |]).(0) in
  Alcotest.(check bool) "identical cells: deterministic" true
    (Column.det (Column.of_realizations ~ty:Value.Tstring [| a; b; c |]));
  let d = det [| v_str "x"; v_str "z"; v_str "y" |] in
  let mixed = Column.of_realizations ~ty:Value.Tstring [| a; d |] in
  Alcotest.(check bool) "differing cells: uncertain" false (Column.det mixed);
  Alcotest.(check bool) "rep 0 null" true (Value.identical Value.Null (Column.value mixed 1 0));
  Alcotest.(check bool) "rep 1 string" true (Value.identical (v_str "z") (Column.value mixed 1 1));
  (* A realization of another type has no storage to interleave into. *)
  let ints = Column.of_det_cells ~ty:Value.Tint ~rows:3 ~reps:1 (fun i -> v_int i) in
  Alcotest.(check bool) "mistyped realization raises" true
    (match Column.of_realizations ~ty:Value.Tstring [| a; ints |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Runs of repetitions interleave in order, and determinism ignores
   what a Null slot stores: a kernel-built column may hold anything
   there, a pushed Null holds nan or 0. *)
let test_of_realizations_runs () =
  let nulls ~reps cells =
    let m = Column.Bitset.create ~rows:3 ~reps false in
    List.iter (fun (i, r) -> Column.Bitset.set m i r) cells;
    m
  in
  let pushed =
    Column.of_det_cells ~ty:Value.Tint ~rows:3 ~reps:1 (fun i ->
        [| v_int 1; Value.Null; v_int 3 |].(i))
  in
  let stale = Column.of_ints ~det:true ~reps:1 ~nulls:(nulls ~reps:1 [ (1, 0) ]) [| 1; 99; 3 |] in
  let ints = Column.of_realizations ~ty:Value.Tint [| pushed; stale; pushed |] in
  Alcotest.(check bool) "int nulls over other data: deterministic" true (Column.det ints);
  Alcotest.(check int) "reps" 3 (Column.reps ints);
  Alcotest.(check bool) "null read" true (Value.identical Value.Null (Column.value ints 1 2));
  let floats =
    Column.of_realizations ~ty:Value.Tfloat
      [|
        Column.of_det_cells ~ty:Value.Tfloat ~rows:3 ~reps:1 (fun i ->
            [| v_float 0.5; Value.Null; v_float 2. |].(i));
        Column.of_floats ~det:false ~reps:2
          ~nulls:(nulls ~reps:2 [ (1, 0); (1, 1) ])
          (Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout
             [| 0.5; 0.5; 7.; -1.; 2.; 2. |]);
      |]
  in
  Alcotest.(check bool) "float nulls over other data: deterministic" true (Column.det floats);
  Alcotest.(check int) "float reps" 3 (Column.reps floats);
  (* One run of several repetitions compresses alone, without a copy
     when its cells differ. *)
  let run =
    Column.of_ints ~det:false ~reps:2 ~nulls:(nulls ~reps:2 [ (1, 0); (1, 1) ])
      [| 4; 4; 5; 6; 7; 7 |]
  in
  Alcotest.(check bool) "one stable run: deterministic" true
    (Column.det (Column.of_realizations ~ty:Value.Tint [| run |]));
  let differing = Column.of_ints ~det:false ~reps:2 [| 4; 5; 6; 6; 7; 7 |] in
  Alcotest.(check bool) "one differing run: itself" true
    (Column.of_realizations ~ty:Value.Tint [| differing |] == differing);
  (* A run and a single realization: repetitions in order. *)
  let both = Column.of_realizations ~ty:Value.Tint [| differing; pushed |] in
  Alcotest.(check int) "run + one: reps" 3 (Column.reps both);
  List.iter
    (fun (i, r, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "cell (%d,%d)" i r)
        true
        (Value.identical want (Column.value both i r)))
    [ (0, 0, v_int 4); (0, 1, v_int 5); (0, 2, v_int 1); (1, 2, Value.Null); (2, 1, v_int 7) ];
  Alcotest.(check bool) "no columns raise" true
    (match Column.of_realizations ~ty:Value.Tint [||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_table_row_errors () =
  let schema = Schema.of_list [ ("a", Value.Tint); ("b", Value.Tfloat) ] in
  Alcotest.(check int) "column array" 2 (Array.length (Schema.column_array schema));
  let error row =
    match Table.check_row schema row with
    | () -> "accepted"
    | exception Invalid_argument msg -> msg
  in
  Alcotest.(check string) "arity" "Table: row arity 1, schema arity 2" (error [| v_int 1 |]);
  Alcotest.(check string) "type" {|Table: column "b" expects float, got string|}
    (error [| v_int 1; v_str "x" |]);
  Alcotest.(check string) "nulls fit" "accepted" (error [| Value.Null; Value.Null |]);
  Alcotest.(check string) "of_rows raises the same"
    {|Table: column "b" expects float, got string|}
    (match Table.of_rows schema [| [| v_int 1; v_float 2. |]; [| v_int 1; v_str "x" |] |] with
    | _ -> "accepted"
    | exception Invalid_argument msg -> msg)

let bitset_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    Column.Bitset.rows a = Column.Bitset.rows b
    && Column.Bitset.reps a = Column.Bitset.reps b
    && List.for_all
         (fun i ->
           List.for_all
             (fun r -> Column.Bitset.get a i r = Column.Bitset.get b i r)
             (List.init (Column.Bitset.reps a) Fun.id))
         (List.init (Column.Bitset.rows a) Fun.id)
  | _ -> false

let views_identical a b =
  match (Column.view a, Column.view b) with
  | Column.Vfloat x, Column.Vfloat y ->
    x.vdet = y.vdet
    && Bigarray.Array1.dim x.data = Bigarray.Array1.dim y.data
    && List.for_all
         (fun s ->
           Int64.bits_of_float (Bigarray.Array1.get x.data s)
           = Int64.bits_of_float (Bigarray.Array1.get y.data s))
         (List.init (Bigarray.Array1.dim x.data) Fun.id)
    && bitset_equal x.nulls y.nulls
  | Column.Vint x, Column.Vint y ->
    x.vdet = y.vdet && x.data = y.data && bitset_equal x.nulls y.nulls
  | Column.Vbool x, Column.Vbool y ->
    x.vdet = y.vdet && x.data = y.data && bitset_equal x.nulls y.nulls
  | Column.Vstring x, Column.Vstring y -> x.vdet = y.vdet && x.codes = y.codes && x.dict == y.dict
  | _ -> false

let prop_view_chains =
  QCheck.Test.make ~name:"composed gather views == step-by-step eager gathers" ~count:300
    QCheck.(
      triple (make view_col_gen) bool
        (list_of_size Gen.(int_range 1 4) (triple bool small_nat (int_range 0 15))))
    (fun (v, uncertain, steps) ->
      let base = build_view_col ~uncertain v in
      (* [composed] never forces until the end; [eager] forces every step;
         [chain] maps an output row back to its base row. *)
      let composed, eager, chain, fresh =
        List.fold_left
          (fun (composed, eager, chain, fresh) step ->
            let idx = chain_step ~rows:(Column.rows composed) step in
            let composed = (Column.gather [| composed |] idx).(0) in
            let eager = (Column.gather [| eager |] idx).(0) in
            ignore (Column.view eager);
            (composed, eager, Array.map (fun k -> chain.(k)) idx,
             fresh && not (Column.materialized composed)))
          (base, base, Array.init (Column.rows base) Fun.id, true)
          steps
      in
      let reps = Column.reps base in
      fresh
      && Column.rows composed = Array.length chain
      && Column.det composed = Column.det base
      && Column.reps composed = reps
      && Column.storage_ty composed = Column.storage_ty base
      && List.for_all
           (fun k ->
             List.for_all
               (fun r ->
                 let cell = Column.value composed k r in
                 value_identical cell (Column.value base chain.(k) r)
                 && value_identical cell (Column.value eager k r))
               (List.init reps Fun.id))
           (List.init (Array.length chain) Fun.id)
      && views_identical composed eager
      && Column.materialized composed)

(* The allocation gate: a 10k-row join over ten int columns a side,
   fanned out 10x, then one output column read. Only the read column is
   gathered; eager gathering would copy all twenty (20 words a row). *)
let int_table ~rows ~keys name =
  Table.of_columns
    (Schema.of_list (List.init 10 (fun j -> (Printf.sprintf "%s%d" name j, Value.Tint))))
    ~rows
    (Array.init 10 (fun j ->
         Column.of_ints ~det:true ~reps:1
           (Array.init rows (fun i -> if j = 0 then i mod keys else (i * 31) + j))))

let test_join_allocates_read_columns_only () =
  let l = Columnar.of_table (int_table ~rows:10_000 ~keys:1_000 "l") in
  let r = Columnar.of_table (int_table ~rows:10_000 ~keys:1_000 "r") in
  let read () =
    let out = Columnar.equi_join ~on:[ ("l0", "r0") ] l r in
    let col = (Table.columns (Columnar.to_table out)).(13) in
    (match Column.view col with Column.Vint { data; _ } -> ignore data.(0) | _ -> ());
    Columnar.row_count out
  in
  ignore (read ());
  let a0 = Mde_obs.allocated_words () in
  let n = read () in
  let words = Mde_obs.allocated_words () -. a0 in
  Alcotest.(check int) "10 matches per probe row" 100_000 n;
  Alcotest.(check bool)
    (Printf.sprintf "join + one column read: %.2f words per output row < 5" (words /. float n))
    true
    (words < 5. *. float n)

(* A lopsided join allocates for its large side only what it reads: key
   codes and lookup ids, 2 words per right row. Marginal words per right
   row as the right side grows from 20k to 40k rows against a 300-row
   left, least of three calls; the matches grow by 600 pairs (0.06 words
   per row). Hashing the right side instead cost 7.86 words per right
   row, of which its open-addressing table was 6.5; this layout measures
   2.06. *)
let test_lopsided_join_allocation () =
  let left = Columnar.of_table (int_table ~rows:300 ~keys:300 "l") in
  let words rows =
    let right = Columnar.of_table (int_table ~rows ~keys:10_000 "r") in
    allocated_words (fun () -> Columnar.equi_join ~on:[ ("l0", "r0") ] left right)
  in
  let marginal = (words 40_000 -. words 20_000) /. 20_000. in
  Alcotest.(check bool)
    (Printf.sprintf "lopsided join: %.2f words per right row <= 3" marginal)
    true (marginal <= 3.)

(* A wide plan: a select above a join, then a group_by reading 2 of the
   plan's 12 output columns. All 12 stay unforced views through
   Plan.execute's [to_table], of_table and group_by: the select reads the
   join's [a], the group key encoding reads [g] and the aggregate reads
   [x], each through its view's index. *)
let test_plan_leaves_unread_columns_unforced () =
  let cat = Catalog.create () in
  Catalog.register cat "fact"
    (Table.create
       (Schema.of_list
          (List.map (fun n -> (n, Value.Tint)) [ "k"; "g"; "b"; "c"; "d"; "e"; "f" ]
          @ [ ("a", Value.Tfloat) ]))
       (List.init 2000 (fun i ->
            Array.append
              (Array.init 7 (fun j -> v_int (if j = 0 then i mod 100 else (i * j) mod 7)))
              [| v_float (float_of_int (i mod 13) /. 13.) |])));
  Catalog.register cat "dim"
    (Table.create
       (Schema.of_list
          [ ("dk", Value.Tint); ("name", Value.Tstring); ("x", Value.Tfloat); ("y", Value.Tint) ])
       (List.init 100 (fun i ->
            [| v_int i; v_str (Printf.sprintf "n%d" i); v_float (float_of_int i); v_int i |])));
  let plan =
    Plan.select Expr.(col "a" > float 0.5)
      (Plan.join ~on:[ ("k", "dk") ] (Plan.scan "fact") (Plan.scan "dim"))
  in
  let aggs = [ ("sx", Algebra.Sum (Expr.col "x")) ] in
  let joined = Plan.execute cat plan in
  let grouped = Columnar.group_by ~keys:[ "g" ] ~aggs (Columnar.of_table joined) in
  List.iteri
    (fun j name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s unforced" name)
        false
        (Column.materialized (Table.columns joined).(j)))
    (Schema.column_names (Table.schema joined));
  Alcotest.(check bool) "group_by == Algebra" true
    (tables_identical (Columnar.to_table grouped)
       (Algebra.group_by ~keys:[ "g" ] ~aggs (Plan.execute_rows cat plan)))

(* Two domains forcing one fresh view at once, and gathering from it,
   from every chunk of a batch: all readers get the single published
   storage. A spin (bounded, so one domain alone cannot hang) lines the
   first chunks up so both domains race to force. *)
let test_views_domain_safe () =
  let n = 100_000 in
  let nulls = Column.Bitset.create ~rows:n ~reps:1 false in
  for i = 0 to n - 1 do
    if i mod 7 = 0 then Column.Bitset.set nulls i 0
  done;
  let base =
    Column.of_floats ~det:true ~reps:1 ~nulls
      (Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout n (fun i ->
           float_of_int i /. 3.))
  in
  let rev = Array.init n (fun k -> n - 1 - k) in
  let expect k = Column.value base (n - 1 - k) 0 in
  let data_of c =
    match Column.view c with Column.Vfloat { data; _ } -> data | _ -> assert false
  in
  Mde_par.Pool.with_pool ~domains:2 (fun pool ->
      for trial = 1 to 10 do
        let v = (Column.gather [| base |] rev).(0) in
        let chunks = 16 in
        let arrived = Atomic.make 0 in
        let seen = Array.make chunks None and cells_ok = Array.make chunks false in
        Mde_par.Pool.parallel_iter pool ~site:"test.views" ~chunk:1 chunks (fun c ->
            Atomic.incr arrived;
            let deadline = Sys.time () +. 0.05 in
            while Atomic.get arrived < 2 && Sys.time () < deadline do
              Domain.cpu_relax ()
            done;
            let probe = [| 0; c; n / 2; n - 1 |] in
            if c mod 2 = 0 then begin
              seen.(c) <- Some (data_of v);
              cells_ok.(c) <-
                Array.for_all (fun k -> value_identical (Column.value v k 0) (expect k)) probe
            end
            else begin
              let g = (Column.gather [| v |] probe).(0) in
              cells_ok.(c) <-
                Array.for_all
                  (fun p -> value_identical (Column.value g p 0) (expect probe.(p)))
                  [| 0; 1; 2; 3 |];
              seen.(c) <- Some (data_of v)
            end);
        let published = data_of v in
        Array.iteri
          (fun c s ->
            Alcotest.(check bool) (Printf.sprintf "trial %d chunk %d cells" trial c) true
              cells_ok.(c);
            Alcotest.(check bool)
              (Printf.sprintf "trial %d chunk %d read the published storage" trial c)
              true
              (match s with Some d -> d == published | None -> false))
          seen
      done)

(* --- QCheck properties --- *)

let random_table_gen =
  QCheck.Gen.(
    let row = map2 (fun a b -> (a, b)) (int_range 0 5) (float_range 0. 10.) in
    list_size (int_range 0 40) row)

let arbitrary_rows = QCheck.make random_table_gen

let to_table rows =
  let schema = Schema.of_list [ ("k", Value.Tint); ("v", Value.Tfloat) ] in
  Table.create schema
    (List.map (fun (k, v) -> [| Value.Int k; Value.Float v |]) rows)

let prop_select_conjunction =
  QCheck.Test.make ~name:"select (a && b) = select a |> select b" ~count:200
    arbitrary_rows
    (fun rows ->
      let t = to_table rows in
      let a = Expr.(col "k" >= int 2) and b = Expr.(col "v" < float 5.) in
      let both = Algebra.select Expr.(a && b) t in
      let seq = Algebra.select b (Algebra.select a t) in
      Table.cardinality both = Table.cardinality seq
      && Array.for_all2
           (fun r1 r2 -> Value.equal r1.(0) r2.(0) && Value.equal r1.(1) r2.(1))
           (Table.rows both) (Table.rows seq))

let prop_join_count =
  QCheck.Test.make ~name:"hash join row count equals nested loop" ~count:100
    (QCheck.pair arbitrary_rows arbitrary_rows)
    (fun (xs, ys) ->
      let left = to_table xs in
      let right =
        let schema = Schema.of_list [ ("k2", Value.Tint); ("v2", Value.Tfloat) ] in
        Table.create schema
          (List.map (fun (k, v) -> [| Value.Int k; Value.Float v |]) ys)
      in
      let joined = Algebra.equi_join ~on:[ ("k", "k2") ] left right in
      let expected =
        List.fold_left
          (fun acc (k, _) ->
            acc + List.length (List.filter (fun (k2, _) -> k = k2) ys))
          0 xs
      in
      Table.cardinality joined = expected)

(* Random well-typed numeric expressions over the (k, v) schema: eval
   must be total and columns_used sound. *)
let expr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return (Expr.col "k"); return (Expr.col "v");
        map Expr.int (int_range (-5) 5); map Expr.float (float_range (-5.) 5.) ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        oneof
          [ leaf;
            map2 (fun a b -> Expr.Add (a, b)) (self (depth - 1)) (self (depth - 1));
            map2 (fun a b -> Expr.Sub (a, b)) (self (depth - 1)) (self (depth - 1));
            map2 (fun a b -> Expr.Mul (a, b)) (self (depth - 1)) (self (depth - 1));
            map (fun a -> Expr.Neg a) (self (depth - 1));
            map3
              (fun c a b -> Expr.If (Expr.Lt (c, Expr.int 0), a, b))
              (self (depth - 1)) (self (depth - 1)) (self (depth - 1)) ])
    3

let prop_expr_total =
  QCheck.Test.make ~name:"well-typed numeric expressions evaluate totally" ~count:300
    (QCheck.pair (QCheck.make expr_gen) arbitrary_rows)
    (fun (expr, rows) ->
      let t = to_table rows in
      let schema = Table.schema t in
      List.for_all (fun c -> Schema.mem schema c) (Expr.columns_used expr)
      && Array.for_all
           (fun row ->
             match Expr.eval schema row expr with
             | Value.Int _ | Value.Float _ | Value.Null -> true
             | Value.Bool _ | Value.String _ -> false)
           (Table.rows t))

let prop_distinct_idempotent =
  QCheck.Test.make ~name:"distinct is idempotent" ~count:200 arbitrary_rows
    (fun rows ->
      let t = to_table rows in
      let once = Algebra.distinct t in
      let twice = Algebra.distinct once in
      Table.cardinality once = Table.cardinality twice)

(* --- exact Int/Float order --- *)

let big53 = 1 lsl 53

(* Ints and floats where float_of_int rounds (±2^53), where ints end
   (±2^62, and float_of_int max_int = 2^62.), and the float specials. *)
let edge_number_gen =
  QCheck.Gen.(
    frequency
      [ ( 3,
          map
            (fun (base, d) -> Value.Int (base + d))
            (pair (oneofl [ big53; -big53; 0 ]) (int_range (-3) 3)) );
        (1, map (fun d -> Value.Int (max_int - d)) (int_range 0 3));
        (1, map (fun d -> Value.Int (min_int + d)) (int_range 0 3));
        ( 3,
          map
            (fun f -> Value.Float f)
            (oneofl
               [ float_of_int big53; float_of_int big53 +. 2.; -.float_of_int big53;
                 0x1p62; -0x1p62; Float.pred 0x1p62; Float.succ (-0x1p62); 0.; -0.; 0.5;
                 -0.5; nan; Int64.float_of_bits 0x7FF0000000000001L; infinity; neg_infinity ]) );
      ])

let prop_value_compare_total =
  QCheck.Test.make ~name:"Value.compare is antisymmetric and transitive on numbers" ~count:2000
    (QCheck.make QCheck.Gen.(triple edge_number_gen edge_number_gen edge_number_gen))
    (fun (a, b, c) ->
      let sign x = compare x 0 in
      let le x y = Value.compare x y <= 0 in
      sign (Value.compare a b) = -sign (Value.compare b a)
      && ((not (le a b && le b c)) || le a c)
      && ((not (Value.equal a b && Value.equal b c)) || Value.equal a c)
      && ((not (Value.equal a b)) || Value.hash a = Value.hash b))

let test_compare_int_float_exact () =
  let check label want a b = Alcotest.(check int) label want (Value.compare a b) in
  check "2^53+1 > 2^53." 1 (Value.Int (big53 + 1)) (Value.Float (float_of_int big53));
  check "2^53 = 2^53." 0 (Value.Int big53) (Value.Float (float_of_int big53));
  check "2^53. < 2^53+1" (-1) (Value.Float (float_of_int big53)) (Value.Int (big53 + 1));
  check "max_int < 2^62." (-1) (Value.Int max_int) (Value.Float 0x1p62);
  check "min_int = -2^62." 0 (Value.Int min_int) (Value.Float (-0x1p62));
  check "0 = -0." 0 (Value.Int 0) (Value.Float (-0.));
  check "int > NaN" 1 (Value.Int min_int) (Value.Float nan);
  check "2 < 2.5" (-1) (Value.Int 2) (Value.Float 2.5);
  check "-2 > -2.5" 1 (Value.Int (-2)) (Value.Float (-2.5));
  (* Compiled predicates compare exactly too, as the interpreter does. *)
  let ints = [ big53 + 1; big53; max_int; min_int; 0; 2; -2 ] in
  let floats = [ float_of_int big53; 0x1p62; -0x1p62; -0.; nan; 2.5; -2.5; infinity ] in
  let t =
    Table.create
      (Schema.of_list [ ("i", Value.Tint); ("f", Value.Tfloat) ])
      (List.concat_map (fun i -> List.map (fun f -> [| Value.Int i; Value.Float f |]) floats) ints)
  in
  let c = Columnar.of_table t in
  List.iter
    (fun (label, pred) ->
      Alcotest.(check bool) label true (matches (Algebra.select pred t) (Columnar.select pred c)))
    Expr.
      [ ("i = f", col "i" = col "f"); ("i < f", col "i" < col "f");
        ("f <= i", col "f" <= col "i"); ("f > i", col "f" > col "i");
        ("i <> f", Ne (col "i", col "f")); ("i >= f", col "i" >= col "f") ]

(* The three keys the old rounding made pairwise equal but not all
   equal: Int (2^53+1) <> Float 2^53. = Int 2^53, in any row order. *)
let test_inexact_keys_row_order () =
  let cells = [ Value.Int (big53 + 1); Value.Float (float_of_int big53); Value.Int big53 ] in
  let rec perms = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( != ) x) l))) l
  in
  List.iter
    (fun order ->
      (* The ints on one side and the float on the other, in the order
         drawn: one dictionary codes both sides, and only Int 2^53 meets
         Float 2^53. *)
      let side name ty =
        Table.create
          (Schema.of_list [ (name, ty) ])
          (List.filter_map
             (fun v -> if Value.type_of v = Some ty then Some [| v |] else None)
             order)
      in
      let ints = side "i" Value.Tint and floats = side "f" Value.Tfloat in
      List.iter
        (fun (l, r, on) ->
          let rows = Algebra.equi_join ~on l r in
          Alcotest.(check int) "one match" 1 (Table.cardinality rows);
          Alcotest.(check bool) "columnar == algebra" true
            (tables_identical rows
               (Columnar.to_table
                  (Columnar.equi_join ~on (Columnar.of_table l) (Columnar.of_table r)))))
        [ (ints, floats, [ ("i", "f") ]); (floats, ints, [ ("f", "i") ]) ])
    (perms cells)

let test_inexact_int_never_joins_float () =
  let ints = Table.create (Schema.of_list [ ("i", Value.Tint) ]) [ [| Value.Int (big53 + 1) |] ] in
  let floats =
    Table.create (Schema.of_list [ ("f", Value.Tfloat) ]) [ [| Value.Float (float_of_int big53) |] ]
  in
  Alcotest.(check int) "algebra" 0
    (Table.cardinality (Algebra.equi_join ~on:[ ("i", "f") ] ints floats));
  Alcotest.(check int) "columnar" 0
    (Columnar.row_count
       (Columnar.equi_join ~on:[ ("i", "f") ] (Columnar.of_table ints) (Columnar.of_table floats)))

(* --- operators reading storage in place --- *)

let cmp_ops = Expr.[| (fun a b -> Eq (a, b)); (fun a b -> Ne (a, b)); (fun a b -> Lt (a, b));
                      (fun a b -> Le (a, b)); (fun a b -> Gt (a, b)); (fun a b -> Ge (a, b)) |]

let cmp_name = [| "="; "<>"; "<"; "<="; ">"; ">=" |]

let edge_floats = [ nan; -0.; 0.; infinity; neg_infinity; 1.5; -2.; 3. ]

(* A fact table [k, i, f, b] with edge floats and, when [nulls], Null
   cells in every column but [k]; and a dimension [dk, dv] covering
   [k]'s values, and two keys of none, in shuffled order. *)
let in_place_case_gen =
  QCheck.Gen.(
    let* rows = oneof [ oneofl [ 0; 255; 256; 257 ]; int_range 1 40 ] in
    let* nulls = bool in
    let cell gen = if nulls then frequency [ (5, gen); (1, return Value.Null) ] else gen in
    let vfloat =
      frequency
        [ (4, map (fun k -> Value.Float (float_of_int k /. 2.)) (int_range (-6) 6));
          (2, map (fun f -> Value.Float f) (oneofl edge_floats)) ]
    in
    let* cells =
      list_repeat rows
        (triple (cell (map v_int (int_range (-3) 3))) (cell vfloat)
           (cell (map (fun b -> Value.Bool b) bool)))
    in
    let* dv = list_repeat 4 (int_bound 2) in
    (* Two rows no fact row matches, which [dv >= 0] drops. *)
    let* dim = shuffle_l (List.combine (List.init 4 Fun.id) dv @ [ (100, -1); (101, -1) ]) in
    return (cells, dim))

let in_place_tables (cells, dim) =
  let fact =
    Table.create
      (Schema.of_list
         [ ("k", Value.Tint); ("i", Value.Tint); ("f", Value.Tfloat); ("b", Value.Tbool) ])
      (List.mapi (fun r (i, f, b) -> [| v_int (r mod 4); i; f; b |]) cells)
  and dim =
    Table.create
      (Schema.of_list [ ("dk", Value.Tint); ("dv", Value.Tint) ])
      (List.map (fun (k, v) -> [| v_int k; v_int v |]) dim)
  in
  (fact, dim)

(* The fact table as built columns; as views through one shared index
   (a select's output); as views (a join's output: the dimension is the
   smaller side, so the fact rows come out in dimension order, each
   column a view over the join's right index); as views of views (a
   select over that join); and as a star join's output (the fact rows
   pass through, each matching one row of a selected dimension, whose
   columns view through the composed right index), with each one's
   row-oracle image. *)
let in_place_inputs (fact, dim) =
  let on = [ ("dk", "k") ] and keep = Expr.(col "dv" >= int 1) and odd = Expr.(col "k" <> int 2)
  and all = Expr.(col "dv" >= int 0) in
  let joined = Algebra.equi_join ~on dim fact in
  [ ("built", Columnar.of_table fact, fact);
    ("selected", Columnar.select odd (Columnar.of_table fact), Algebra.select odd fact);
    ("view", Columnar.equi_join ~on (Columnar.of_table dim) (Columnar.of_table fact), joined);
    ( "view of view",
      Columnar.select keep
        (Columnar.equi_join ~on (Columnar.of_table dim) (Columnar.of_table fact)),
      Algebra.select keep joined );
    ( "star",
      Columnar.equi_join ~on:[ ("k", "dk") ] (Columnar.of_table fact)
        (Columnar.select all (Columnar.of_table dim)),
      Algebra.equi_join ~on:[ ("k", "dk") ] fact (Algebra.select all dim) ) ]

let prop_select_literal_in_place =
  QCheck.Test.make ~name:"select col op lit / lit op col == Algebra.select" ~count:150
    (QCheck.make
       QCheck.Gen.(
         let* case = in_place_case_gen in
         let* col = oneofl [ "i"; "f"; "b" ] in
         let* lit =
           oneof
             [ map v_int (int_range (-3) 3);
               map (fun f -> Value.Float f) (oneofl (2.5 :: edge_floats));
               map (fun b -> Value.Bool b) bool ]
         in
         return (case, col, lit)))
    (fun (case, col, lit) ->
      let pool = Mde_par.Pool.shared ~domains:2 () in
      let tables = in_place_tables case in
      List.for_all
        (fun (op, mk) ->
          List.for_all
            (fun pred ->
              List.for_all
                (fun (_, c, oracle) ->
                  let seq = Columnar.select pred c in
                  let pooled = Columnar.select ~pool pred c in
                  matches (Algebra.select pred oracle) seq
                  && tables_identical (Columnar.to_table seq) (Columnar.to_table pooled)
                  || QCheck.Test.fail_reportf "%s %s %s" col cmp_name.(op)
                       (Value.to_display lit))
                (in_place_inputs tables))
            [ mk (Expr.Col col) (Expr.Lit lit); mk (Expr.Lit lit) (Expr.Col col) ])
        (List.mapi (fun op mk -> (op, mk)) (Array.to_list cmp_ops)))

let prop_group_by_leaves_in_place =
  QCheck.Test.make ~name:"group_by over view leaves == Algebra.group_by" ~count:150
    (QCheck.make in_place_case_gen)
    (fun case ->
      let pool = Mde_par.Pool.shared ~domains:2 () in
      let aggs =
        List.concat_map
          (fun c ->
            Algebra.
              [ ("s" ^ c, Sum (Expr.col c)); ("a" ^ c, Avg (Expr.col c)); ("lo" ^ c, Min (Expr.col c));
                ("hi" ^ c, Max (Expr.col c)); ("sd" ^ c, Std (Expr.col c)) ])
          [ "i"; "f"; "b" ]
      in
      List.for_all
        (fun (_, c, oracle) ->
          List.for_all
            (fun keys ->
              let seq = Columnar.group_by ~keys ~aggs c in
              matches (Algebra.group_by ~keys ~aggs oracle) seq
              && tables_identical (Columnar.to_table seq)
                   (Columnar.to_table (Columnar.group_by ~pool ~keys ~aggs c)))
            [ [ "k" ]; [] ])
        (in_place_inputs (in_place_tables case)))

(* Join inputs of every shape: built columns, a select's views, views of
   views, and a side mixing both (a join whose left side passed through
   built and whose right side is views), keyed on an int with Nulls and
   duplicates. *)
type join_side = Built | Sel of int * join_side | Mixed

let rec side_name = function
  | Built -> "built"
  | Sel (c, s) -> Printf.sprintf "sel(%d, %s)" c (side_name s)
  | Mixed -> "mixed"

let side_gen =
  QCheck.Gen.(
    let* c1 = int_bound 5 and* c2 = int_bound 5 in
    oneofl [ Built; Sel (c1, Built); Sel (c2, Sel (c1, Built)); Mixed; Sel (c1, Mixed) ])

let rec build_side p base = function
  | Built -> (Columnar.of_table base, base)
  | Sel (c, s) ->
    let col, alg = build_side p base s in
    let pred = Expr.(col (p ^ "v") <> int c) in
    (Columnar.select pred col, Algebra.select pred alg)
  | Mixed ->
    let n = Table.cardinality base in
    let dim =
      Table.create
        (Schema.of_list [ (p ^ "d", Value.Tint); (p ^ "w", Value.Tint) ])
        (List.init n (fun i -> [| v_int (n - 1 - i); v_int (i * 7) |]))
    in
    let on = [ (p ^ "v", p ^ "d") ] in
    (Columnar.equi_join ~on (Columnar.of_table base) (Columnar.of_table dim), Algebra.equi_join ~on base dim)

let prop_join_views_in_place =
  QCheck.Test.make ~name:"equi_join over views of views and mixed sides == Algebra" ~count:200
    (QCheck.make
       ~print:(fun ((l, _), (r, _)) -> side_name l ^ " x " ^ side_name r)
       QCheck.Gen.(
         let keys = list_size (int_range 0 30) (frequency [ (6, map Option.some (int_bound 6)); (1, return None) ]) in
         pair (pair side_gen keys) (pair side_gen keys)))
    (fun ((ls, lkeys), (rs, rkeys)) ->
      let pool = Mde_par.Pool.shared ~domains:2 () in
      let base p keys =
        Table.create
          (Schema.of_list [ (p ^ "k", Value.Tint); (p ^ "v", Value.Tint); (p ^ "f", Value.Tfloat) ])
          (List.mapi
             (fun i k ->
               [| Option.fold ~none:Value.Null ~some:v_int k; v_int (i mod 6); v_float (float_of_int i /. 3.) |])
             keys)
      in
      let l, la = build_side "l" (base "l" lkeys) ls and r, ra = build_side "r" (base "r" rkeys) rs in
      let on = [ ("lk", "rk") ] in
      let seq = Columnar.equi_join ~on l r and pooled = Columnar.equi_join ~pool ~on l r in
      matches (Algebra.equi_join ~on la ra) seq
      && tables_identical (Columnar.to_table seq) (Columnar.to_table pooled))

(* An analytic-shaped star query: a float-literal select on the fact
   table, a (string, int) join to a selected dimension, an int join to a
   second one, and a (string, int) group. Major-heap words per query,
   measured between two minor collections, least of three: the select's
   output index, the first join's probe codes and pair indices, and the
   second join's codes (its left side passes through, and its right
   index takes the codes' place), and the group's key codes, about 2.6
   words per fact row here. The bound fails a per-row survivor mark, a
   composed second copy of a join's pair indices or a right index
   beside the probe codes: with all three the query read 4.0. *)
let test_star_query_major_words () =
  let rows = 20_000 in
  let rng = Mde_prob.Rng.create ~seed:51 () in
  let regions = [| "n"; "s"; "e"; "w" |] in
  let fact =
    Table.create
      (Schema.of_list
         [ ("region", Value.Tstring); ("store", Value.Tint); ("day", Value.Tint);
           ("amount", Value.Tfloat); ("qty", Value.Tint) ])
      (List.init rows (fun _ ->
           [| v_str regions.(Mde_prob.Rng.int rng 4); v_int (Mde_prob.Rng.int rng 25);
              v_int (Mde_prob.Rng.int rng 100); v_float (Mde_prob.Rng.float_range rng 0. 1000.);
              v_int (1 + Mde_prob.Rng.int rng 9) |]))
  and stores =
    Table.create
      (Schema.of_list
         [ ("s_region", Value.Tstring); ("s_store", Value.Tint); ("city", Value.Tstring); ("size", Value.Tint) ])
      (List.concat_map
         (fun r ->
           List.init 25 (fun s ->
               [| v_str r; v_int s; v_str (Printf.sprintf "c%d" (Mde_prob.Rng.int rng 6));
                  v_int (1 + Mde_prob.Rng.int rng 5) |]))
         (Array.to_list regions))
  and days =
    Table.create
      (Schema.of_list [ ("d_day", Value.Tint); ("month", Value.Tint) ])
      (List.init 100 (fun d -> [| v_int d; v_int (d / 31) |]))
  in
  let fact = Columnar.of_table fact and stores = Columnar.of_table stores and days = Columnar.of_table days in
  let query () =
    let sel = Columnar.select Expr.(col "amount" >= float 500.) fact in
    let dim = Columnar.select Expr.(col "size" >= int 2) stores in
    let j1 = Columnar.equi_join ~on:[ ("region", "s_region"); ("store", "s_store") ] sel dim in
    let j2 = Columnar.equi_join ~on:[ ("day", "d_day") ] j1 days in
    Columnar.group_by ~keys:[ "city"; "month" ]
      ~aggs:[ ("revenue", Algebra.Sum (Expr.col "amount")); ("n", Algebra.Count); ("q", Algebra.Avg (Expr.col "qty")) ]
      j2
  in
  ignore (query ());
  let once () =
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.major_words in
    ignore (Sys.opaque_identity (query ()));
    Gc.minor ();
    (Gc.quick_stat ()).Gc.major_words -. before
  in
  let words = List.fold_left Float.min infinity (List.init 3 (fun _ -> once ())) in
  let per_row = words /. float_of_int rows in
  Alcotest.(check bool)
    (Printf.sprintf "star query: %.2f major words per fact row <= 2.9" per_row)
    true (per_row <= 2.9)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mde_relational"
    [
      ( "values+schemas",
        [
          Alcotest.test_case "value compare" `Quick test_value_compare;
          Alcotest.test_case "schema duplicate" `Quick test_schema_duplicate;
          Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
          Alcotest.test_case "rename/concat" `Quick test_schema_rename_concat;
          Alcotest.test_case "table type check" `Quick test_table_type_check;
          Alcotest.test_case "nulls allowed" `Quick test_table_null_allowed;
          Alcotest.test_case "value display/coercion" `Quick test_value_display;
        ] );
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "columns_used" `Quick test_expr_columns_used;
          Alcotest.test_case "if" `Quick test_expr_if;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "project/extend" `Quick test_project_extend;
          Alcotest.test_case "equi join" `Quick test_equi_join;
          Alcotest.test_case "left join" `Quick test_left_join;
          Alcotest.test_case "theta join" `Quick test_theta_join;
          Alcotest.test_case "semi/anti join" `Quick test_semi_anti_join;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "global aggregate" `Quick test_group_by_global;
          Alcotest.test_case "nulls skipped" `Quick test_group_by_skips_nulls;
          Alcotest.test_case "count_if" `Quick test_count_if;
          Alcotest.test_case "NaN keys" `Quick test_nan_keys;
          Alcotest.test_case "cross-type numeric keys" `Quick test_cross_type_numeric_keys;
          Alcotest.test_case "order by" `Quick test_order_by;
          Alcotest.test_case "order by stable" `Quick test_order_by_stable;
          Alcotest.test_case "distinct/union/limit" `Quick test_distinct_union_limit;
          Alcotest.test_case "empty-table sweep" `Quick test_empty_table_operators;
        ] );
      ( "column builder",
        qc [ prop_builder_round_trip; prop_of_cells_identical ]
        @ [
            Alcotest.test_case "of_cells keeps signed zeros and NaN payloads" `Quick
              test_of_cells_signed_zero;
            Alcotest.test_case "of_realizations shares and interleaves" `Quick
              test_of_realizations_sharing;
            Alcotest.test_case "of_realizations interleaves runs, ignores data under nulls"
              `Quick test_of_realizations_runs;
            Alcotest.test_case "row errors" `Quick test_table_row_errors;
          ] );
      ( "columnar",
        [
          Alcotest.test_case "roundtrip" `Quick test_columnar_roundtrip;
          Alcotest.test_case "operators == algebra" `Quick
            test_columnar_matches_algebra_people;
          Alcotest.test_case "empty global aggregate" `Quick test_columnar_empty_global;
          Alcotest.test_case "negative limit raises" `Quick test_limit_negative;
          Alcotest.test_case "pooled == sequential" `Quick test_columnar_pooled_identity;
          Alcotest.test_case "blocks == algebra across block boundaries" `Quick
            test_columnar_blocks_match_algebra;
          Alcotest.test_case "allocation per block, not per row" `Quick
            test_columnar_allocation;
          Alcotest.test_case "extend checks declared types" `Quick test_extend_declared_types;
          Alcotest.test_case "images shared" `Quick test_columnar_shares_images;
          Alcotest.test_case "to_table builds no rows" `Quick test_to_table_builds_no_rows;
          Alcotest.test_case "images domain-safe" `Quick test_table_images_domain_safe;
          Alcotest.test_case "join allocates read columns only" `Quick
            test_join_allocates_read_columns_only;
          Alcotest.test_case "lopsided join allocates for what it reads" `Quick
            test_lopsided_join_allocation;
          Alcotest.test_case "plan leaves unread columns unforced" `Quick
            test_plan_leaves_unread_columns_unforced;
          Alcotest.test_case "views domain-safe" `Quick test_views_domain_safe;
          Alcotest.test_case "star query major words" `Quick test_star_query_major_words;
        ] );
      ( "value order",
        qc [ prop_value_compare_total ]
        @ [
            Alcotest.test_case "int/float compare exact" `Quick test_compare_int_float_exact;
            Alcotest.test_case "inexact keys row-order invariant" `Quick
              test_inexact_keys_row_order;
            Alcotest.test_case "inexact int never joins float" `Quick
              test_inexact_int_never_joins_float;
          ] );
      ( "keycode",
        [
          Alcotest.test_case "float composite injective" `Quick test_keycode_float_composite;
          Alcotest.test_case "packed composite injective" `Quick
            test_keycode_packed_composite;
          Alcotest.test_case "cross-side numeric keys" `Quick
            test_keycode_cross_side_numeric;
          Alcotest.test_case "shared string dictionary" `Quick
            test_keycode_shared_string_dict;
          Alcotest.test_case "wide ints exact" `Quick test_keycode_wide_ints;
          Alcotest.test_case "refusals and raw mode" `Quick test_keycode_refusals_and_raw;
          Alcotest.test_case "table first-seen ids" `Quick test_keycode_tbl_first_seen;
          Alcotest.test_case "lopsided join, both orientations == algebra" `Quick
            test_lopsided_join_orientations;
          Alcotest.test_case "order_by packed == comparator" `Quick
            test_order_by_packed_matches_comparator;
          Alcotest.test_case "dictionary keys == algebra" `Quick
            test_dictionary_keys_match_algebra;
          Alcotest.test_case "keyed ops pooled == sequential" `Quick
            test_keyed_pooled_identity;
          Alcotest.test_case "pooled probe past one chunk == algebra" `Quick
            test_pooled_probe_past_chunk;
          QCheck_alcotest.to_alcotest prop_tbl_first_seen;
          QCheck_alcotest.to_alcotest prop_join_pass_through;
        ] );
      ( "query",
        [
          Alcotest.test_case "pipeline" `Quick test_query_pipeline;
          Alcotest.test_case "join+compute" `Quick test_query_join_compute;
        ] );
      ( "plan",
        [
          Alcotest.test_case "execute" `Quick test_plan_execute;
          Alcotest.test_case "schema" `Quick test_plan_schema;
          Alcotest.test_case "cardinality estimates" `Quick test_estimate_rows_sanity;
          Alcotest.test_case "selection pushdown" `Quick test_push_selections_preserves_and_helps;
          Alcotest.test_case "join ordering" `Quick test_order_joins_small_first;
          Alcotest.test_case "optimize end-to-end" `Quick test_optimize_end_to_end;
          Alcotest.test_case "columnar executor identity" `Quick test_plan_columnar_identity;
          Alcotest.test_case "disconnected chain still optimizes subtrees" `Quick
            test_order_joins_disconnected_chain;
          Alcotest.test_case "larger input probes" `Quick test_optimize_larger_input_left;
          Alcotest.test_case "composite-key join estimate" `Quick test_composite_join_estimate;
          Alcotest.test_case "analytic shape optimizes as before" `Quick test_optimize_analytic_shape;
        ] );
      ("catalog", [ Alcotest.test_case "stats" `Quick test_catalog ]);
      ( "properties",
        qc
          [ prop_select_conjunction; prop_join_count; prop_distinct_idempotent;
            prop_expr_total; prop_optimize_preserves_semantics;
            prop_columnar_matches_algebra; prop_columnar_join_mixed_keys;
            prop_packed_matches_boxed; prop_packed_views_match_boxed; prop_plan_execute_bit_identity;
            prop_table_images_agree; prop_view_chains; prop_select_literal_in_place;
            prop_group_by_leaves_in_place; prop_join_views_in_place ] );
    ]
