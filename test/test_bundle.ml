(* Columnar bundle engine: parity properties against the naive path.

   The contract under test (Bundle's doc): realization [r] of a bundle
   built from seed [s] is bit-identical to element [r] of
   [Stochastic_table.instantiate_many] with the same seed, and every
   operator (select / extend / aggregate / fused query) produces
   bit-identical results to the naive per-instance path, pooled or
   sequential, for every expression the typing rule accepts, and raises
   the row oracle's error, before any cell, on every one it rejects.
   Randomized trials draw rows / reps / predicates / computed columns
   from a seeded RNG so failures reproduce exactly. *)

open Mde_relational
module Rng = Mde_prob.Rng
module Vg = Mde_mcdb.Vg
module St = Mde_mcdb.Stochastic_table
module Bundle = Mde_mcdb.Bundle
module Database = Mde_mcdb.Database
module Pool = Mde_par.Pool

let v_int i = Value.Int i
let v_str s = Value.String s
let v_float f = Value.Float f

let float_bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Bitwise on floats (NaN ≡ NaN, -0. ≢ 0.), structural elsewhere. *)
let value_eq a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> float_bits_eq x y
  | _ -> Value.equal a b

let row_eq a b = Array.length a = Array.length b && Array.for_all2 value_eq a b

let check_tables_identical msg expected actual =
  Alcotest.(check int)
    (msg ^ ": cardinality")
    (Table.cardinality expected) (Table.cardinality actual);
  Array.iteri
    (fun i row ->
      if not (row_eq row (Table.rows actual).(i)) then
        Alcotest.failf "%s: row %d differs" msg i)
    (Table.rows expected)

(* --- randomized fixture ------------------------------------------------ *)

let sbp_param =
  Table.create
    (Schema.of_list [ ("mean", Value.Tfloat); ("std", Value.Tfloat) ])
    [ [| v_float 120.; v_float 15. |] ]

let sbp_schema =
  Schema.of_list
    [ ("pid", Value.Tint); ("gender", Value.Tstring); ("sbp", Value.Tfloat) ]

let sbp_table n =
  let driver =
    Table.create
      (Schema.of_list [ ("pid", Value.Tint); ("gender", Value.Tstring) ])
      (List.init n (fun i ->
           [| v_int i; v_str (if i mod 2 = 0 then "F" else "M") |]))
  in
  St.define ~name:"SBP_DATA" ~schema:sbp_schema ~driver ~vg:Vg.normal
    ~params:(fun _ -> [ sbp_param ])
    ~combine:(fun driver vg_row -> [| driver.(0); driver.(1); vg_row.(0) |])

(* Predicate pool: typed comparisons, boolean connectives, Is_null, If
   over booleans, and the shapes typing gives a kind to: an always-Null
   If branch (the other branch's kind), a comparison with Null (false),
   and string-vs-int and bool-vs-int comparisons (the constant of their
   ranks, false on a Null side). *)
let predicates =
  Expr.
    [
      col "sbp" > float 120.;
      col "sbp" <= float 110. || col "gender" = string "F";
      col "pid" < int 5;
      not_ (col "gender" = string "M") && col "sbp" >= float 100.;
      Is_null (col "sbp");
      If (col "pid" < int 3, col "sbp" > float 115., bool false);
      If (col "gender" = string "F", col "sbp", Lit Value.Null) > float 118.;
      col "sbp" > Lit Value.Null || (col "gender" > col "pid" && col "sbp" < float 125.);
      (col "sbp" > float 118.) < col "pid" && Not (Lit Value.Null = col "gender");
      ((col "sbp" - float 120.) / float 15.) * (col "sbp" - float 120.) / float 15.
      > float 1.;
    ]

(* Computed-column pool: (name, declared type, expr), the typed-Null
   and cross-kind shapes included. *)
let derivations =
  Expr.
    [
      ("risk", Value.Tfloat, (col "sbp" - float 120.) / float 15.);
      ("flag", Value.Tbool, col "sbp" > float 125.);
      ("bucket", Value.Tint, If (col "sbp" > float 120., int 1, int 0));
      ("mixed", Value.Tfloat, If (col "gender" = string "F", col "sbp", Lit Value.Null));
      ("label", Value.Tstring, If (col "sbp" > float 120., string "hi", string "lo"));
      ("cross", Value.Tbool, col "gender" <= col "sbp");
      ("none", Value.Tint, Lit Value.Null * col "pid");
    ]

let agg_pool =
  [
    ("n", Aggregate.Count);
    ("s", Aggregate.Sum (Expr.col "sbp"));
    ("a", Aggregate.Avg (Expr.col "sbp"));
    ("lo", Aggregate.Min (Expr.col "sbp"));
    ("hi", Aggregate.Max (Expr.col "sbp"));
  ]

(* Bundle aggregates are float-valued; map Algebra's Value results onto
   the same representation (empty-group Avg/Min/Max is Null ↦ nan,
   which is also Bundle's empty-group value). *)
let agg_value_to_float = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | Value.Null -> nan
  | v -> Alcotest.failf "unexpected aggregate value %s" (Format.asprintf "%a" Value.pp v)

(* --- to_instances ≡ instantiate_many ----------------------------------- *)

let test_to_instances_matches_naive () =
  let rng0 = Rng.create ~seed:101 () in
  for trial = 0 to 9 do
    let rows = 1 + Rng.int rng0 12 and reps = 1 + Rng.int rng0 8 in
    let st = sbp_table rows in
    let seed = 500 + trial in
    let b = Bundle.of_stochastic_table st (Rng.create ~seed ()) ~n_reps:reps in
    let naive = St.instantiate_many st (Rng.create ~seed ()) reps in
    let realized = Bundle.to_instances b in
    Alcotest.(check int) "instance count" reps (Array.length realized);
    Array.iteri
      (fun r t ->
        check_tables_identical
          (Printf.sprintf "trial %d rep %d" trial r)
          naive.(r) t)
      realized
  done

(* A row-stable VG drawing each cell from [Rng.bool]: the first or the
   second value of the driver row's one parameter row. [coin_table]
   realizes [(driver columns..., value)] over it. *)
let coin_vg =
  Vg.create ~name:"coin"
    ~output:(Schema.of_list [ ("value", Value.Tfloat) ])
    ~row_stable:true
    (fun rng params ->
      let p = (Table.rows (List.hd params)).(0) in
      [ [| (if Rng.bool rng then p.(0) else p.(1)) |] ])

let coin_table ~name driver coin =
  let faces = Schema.of_list [ ("a", Value.Tfloat); ("b", Value.Tfloat) ] in
  St.define ~name
    ~schema:(Schema.concat (Table.schema driver) (Schema.of_list [ ("value", Value.Tfloat) ]))
    ~driver ~vg:coin_vg
    ~params:(fun d ->
      let a, b = coin d in
      [ Table.create faces [ [| v_float a; v_float b |] ] ])
    ~combine:(fun d v -> Array.append d v)

let quiet_nan = Int64.float_of_bits 0x7FF8000000000001L

(* Deciding a column is deterministic must not lose bits: [0.] and
   [-0.], and NaNs with different payloads, are equal under
   [Value.equal] but not interchangeable. Drawn per cell from
   [Rng.bool], they differ across repetitions, so every realization must
   keep its own bits. *)
let test_signed_zero_and_nan_bits () =
  List.iter
    (fun (label, a, b) ->
      let st =
        coin_table ~name:label
          (Table.create (Schema.of_list [ ("pid", Value.Tint) ])
             (List.init 4 (fun i -> [| v_int i |])))
          (fun _ -> (a, b))
      in
      let naive = St.instantiate_many st (Rng.create ~seed:7 ()) 8 in
      let b = Bundle.of_stochastic_table st (Rng.create ~seed:7 ()) ~n_reps:8 in
      Array.iteri
        (fun r t -> check_tables_identical (Printf.sprintf "%s rep %d" label r) naive.(r) t)
        (Bundle.to_instances b))
    [ ("zeros", 0., -0.); ("nans", nan, quiet_nan) ]

(* [params] takes no RNG, so the bundle evaluates it once per driver
   row, not once per (driver row, repetition). *)
let test_params_once_per_driver_row () =
  let calls = ref 0 in
  let st =
    St.define ~name:"SBP_DATA" ~schema:sbp_schema ~driver:(St.driver (sbp_table 9))
      ~vg:Vg.normal
      ~params:(fun _ ->
        incr calls;
        [ sbp_param ])
      ~combine:(fun d v -> [| d.(0); d.(1); v.(0) |])
  in
  let b = Bundle.of_stochastic_table st (Rng.create ~seed:3 ()) ~n_reps:12 in
  Alcotest.(check int) "one params call per driver row" 9 !calls;
  Array.iteri
    (fun r t -> check_tables_identical (Printf.sprintf "rep %d" r) t (Bundle.to_instances b).(r))
    (St.instantiate_many (sbp_table 9) (Rng.create ~seed:3 ()) 12)

(* --- select: kernel ≡ naive σ ------------------------------------------ *)

let test_select_parity () =
  let rng0 = Rng.create ~seed:202 () in
  List.iteri
    (fun pi pred ->
      let rows = 2 + Rng.int rng0 10 and reps = 2 + Rng.int rng0 6 in
      let st = sbp_table rows in
      let seed = 900 + pi in
      let b = Bundle.of_stochastic_table st (Rng.create ~seed ()) ~n_reps:reps in
      let kernel = Bundle.select pred b in
      let naive = St.instantiate_many st (Rng.create ~seed ()) reps in
      Array.iteri
        (fun r t ->
          check_tables_identical
            (Printf.sprintf "predicate %d rep %d vs naive σ" pi r)
            (Algebra.select pred naive.(r))
            t)
        (Bundle.to_instances kernel))
    predicates

(* --- extend: kernel ≡ naive -------------------------------------------- *)

let test_extend_parity () =
  let rng0 = Rng.create ~seed:303 () in
  List.iteri
    (fun di def ->
      let rows = 2 + Rng.int rng0 8 and reps = 2 + Rng.int rng0 6 in
      let st = sbp_table rows in
      let seed = 1300 + di in
      let b = Bundle.of_stochastic_table st (Rng.create ~seed ()) ~n_reps:reps in
      let kernel = Bundle.extend [ def ] b in
      let naive = St.instantiate_many st (Rng.create ~seed ()) reps in
      Array.iteri
        (fun r t ->
          check_tables_identical
            (Printf.sprintf "derivation %d rep %d vs naive extend" di r)
            (Algebra.extend [ def ] naive.(r))
            t)
        (Bundle.to_instances kernel))
    derivations

(* --- aggregate: kernel ≡ naive group_by -------------------------------- *)

let check_agg_results_identical msg expected actual =
  Alcotest.(check int) (msg ^ ": group count") (List.length expected)
    (List.length actual);
  List.iter2
    (fun (k1, v1) (k2, v2) ->
      if not (row_eq k1 k2) then Alcotest.failf "%s: group keys differ" msg;
      Array.iteri
        (fun j samples ->
          Array.iteri
            (fun r x ->
              if not (float_bits_eq x v2.(j).(r)) then
                Alcotest.failf "%s: agg %d rep %d: %h <> %h" msg j r x v2.(j).(r))
            samples)
        v1)
    expected actual

(* [Bundle.aggregate] over the [pred]-filtered bundle of [st] against
   [Algebra.group_by] on every realized instance, bit for bit. A group
   empty in repetition [r] has no row in the naive output; the bundle
   reports Count 0 / Sum 0 / nan there. *)
let check_aggregate_parity msg st ~seed ~reps pred aggs keys =
  let b = Bundle.of_stochastic_table st (Rng.create ~seed ()) ~n_reps:reps in
  let kernel = Bundle.aggregate ~keys aggs (Bundle.select pred b) in
  let naive = St.instantiate_many st (Rng.create ~seed ()) reps in
  let n_keys = List.length keys in
  List.iter
    (fun (key, per_agg) ->
      for r = 0 to reps - 1 do
        let g = Algebra.group_by ~keys ~aggs (Algebra.select pred naive.(r)) in
        let matching =
          Array.to_list (Table.rows g)
          |> List.filter (fun row -> Array.for_all2 value_eq (Array.sub row 0 n_keys) key)
        in
        match matching with
        | [] ->
          List.iteri
            (fun j (_, a) ->
              if a = Aggregate.Count then
                Alcotest.(check (float 0.)) "empty group count" 0. per_agg.(j).(r))
            aggs
        | [ row ] ->
          List.iteri
            (fun j _ ->
              let expect = agg_value_to_float row.(n_keys + j) in
              if not (float_bits_eq expect per_agg.(j).(r)) then
                Alcotest.failf "%s rep %d agg %d: naive %h <> bundle %h" msg r j expect
                  per_agg.(j).(r))
            aggs
        | _ -> Alcotest.fail "duplicate group in naive output"
      done)
    kernel;
  kernel

(* NaN cells, drawn per cell by [coin_vg]: group "nan" holds NaNs of two
   payloads in every repetition, group "mixed" NaN or a number per cell,
   and the global group both. Every aggregate matches the per-instance
   row oracle bit for bit, where NaN follows [Value.compare]: it wins
   Min and loses Max to any number. *)
let check_nan_aggregate_parity () =
  let driver =
    Table.create
      (Schema.of_list [ ("pid", Value.Tint); ("kind", Value.Tstring) ])
      (List.init 8 (fun i -> [| v_int i; v_str (if i < 3 then "nan" else "mixed") |]))
  in
  let st =
    coin_table ~name:"NAN_DATA" driver (fun d ->
        if Value.equal d.(1) (v_str "nan") then (nan, quiet_nan)
        else (nan, float_of_int (Value.to_int d.(0))))
  in
  let v = Expr.col "value" in
  let aggs =
    Aggregate.[ ("n", Count); ("s", Sum v); ("a", Avg v); ("lo", Min v); ("hi", Max v) ]
  in
  let pred = Expr.(col "pid" >= int 0) in
  ignore (check_aggregate_parity "global" st ~seed:11 ~reps:16 pred aggs []);
  let groups = check_aggregate_parity "keyed" st ~seed:11 ~reps:16 pred aggs [ "kind" ] in
  let group kind = snd (List.find (fun (key, _) -> Value.equal key.(0) (v_str kind)) groups) in
  Array.iter
    (fun x -> Alcotest.(check bool) "all-NaN group: Min and Max are NaN" true (Float.is_nan x))
    (Array.append (group "nan").(3) (group "nan").(4));
  let mixed = group "mixed" in
  Alcotest.(check bool) "some repetition mixes NaN and numbers: NaN Min, number Max" true
    (List.exists
       (fun r -> Float.is_nan mixed.(3).(r) && not (Float.is_nan mixed.(4).(r)))
       (List.init 16 Fun.id))

let test_aggregate_parity () =
  let rng0 = Rng.create ~seed:404 () in
  List.iteri
    (fun pi pred ->
      let rows = 2 + Rng.int rng0 10 and reps = 2 + Rng.int rng0 6 in
      List.iter
        (fun keys ->
          ignore
            (check_aggregate_parity (Printf.sprintf "predicate %d" pi) (sbp_table rows)
               ~seed:(1700 + pi) ~reps pred agg_pool keys))
        [ []; [ "gender" ]; [ "gender"; "pid" ] ])
    predicates;
  check_nan_aggregate_parity ()

(* --- fused query ≡ select |> extend |> aggregate ----------------------- *)

let plan =
  {
    Bundle.where_ = Some Expr.(col "sbp" > float 100.);
    derive = [ ("risk", Value.Tfloat, Expr.((col "sbp" - float 120.) / float 15.)) ];
    group_keys = [];
    aggs =
      [
        ("mean_sbp", Aggregate.Avg (Expr.col "sbp"));
        ("max_risk", Aggregate.Max (Expr.col "risk"));
        ("n", Aggregate.Count);
      ];
  }

let compose ?pool b (p : Bundle.plan) =
  let b = match p.where_ with None -> b | Some e -> Bundle.select ?pool e b in
  let b = match p.derive with [] -> b | defs -> Bundle.extend ?pool defs b in
  Bundle.aggregate ?pool ~keys:p.group_keys p.aggs b

let test_query_fused_equals_compose () =
  let st = sbp_table 40 in
  let b = Bundle.of_stochastic_table st (Rng.create ~seed:7 ()) ~n_reps:32 in
  let plan =
    (* pid_band is derived but deterministic (pid is deterministic), so
       it is a legal group key that is absent from the base schema —
       grouping on it forces the unfused compose path inside [query]. *)
    {
      plan with
      Bundle.derive =
        plan.Bundle.derive
        @ [ ("pid_band", Value.Tint, Expr.(If (col "pid" < int 20, int 0, int 1))) ];
    }
  in
  (* The same plan with a predicate and a derivation holding an
     always-Null branch, and aggregates over that derivation and over
     one that is always Null: the fused sweep binds them by name, while
     compose aggregates materialized columns. *)
  let typed_plan =
    {
      plan with
      Bundle.where_ = Some (List.nth predicates 6);
      derive = List.nth derivations 3 :: List.nth derivations 6 :: plan.Bundle.derive;
      aggs =
        ("mean_mixed", Aggregate.Avg (Expr.col "mixed"))
        :: ("min_none", Aggregate.Min (Expr.col "none"))
        :: ("pid_or_none", Aggregate.Sum Expr.(If (col "sbp" > float 120., col "none", col "pid")))
        :: plan.Bundle.aggs;
    }
  in
  List.iter
    (fun plan ->
      List.iter
        (fun keys ->
          let p = { plan with Bundle.group_keys = keys } in
          check_agg_results_identical "query vs compose" (Bundle.query b p) (compose b p))
        [ []; [ "gender" ]; [ "pid_band" ] ])
    [ plan; typed_plan ]

(* --- pooled execution is bit-identical --------------------------------- *)

let test_pooled_bit_identity () =
  let st = sbp_table 23 in
  let reps = 17 in
  Pool.with_pool ~domains:2 (fun pool ->
      let seq = Bundle.of_stochastic_table st (Rng.create ~seed:31 ()) ~n_reps:reps in
      let par =
        Bundle.of_stochastic_table ~pool st (Rng.create ~seed:31 ()) ~n_reps:reps
      in
      for i = 0 to Bundle.row_count seq - 1 do
        for r = 0 to reps - 1 do
          if not (row_eq (Bundle.realize_row seq i r) (Bundle.realize_row par i r))
          then Alcotest.failf "pooled construction differs at (%d,%d)" i r
        done
      done;
      let pred = Expr.(col "sbp" > float 118.) in
      let s_seq = Bundle.select pred seq and s_par = Bundle.select ~pool pred par in
      Alcotest.(check int) "pooled select survivors" (Bundle.survivors s_seq)
        (Bundle.survivors s_par);
      for i = 0 to Bundle.row_count seq - 1 do
        for r = 0 to reps - 1 do
          if Bundle.present s_seq i r <> Bundle.present s_par i r then
            Alcotest.failf "pooled select presence differs at (%d,%d)" i r
        done
      done;
      List.iter
        (fun keys ->
          check_agg_results_identical "pooled aggregate"
            (Bundle.aggregate ~keys agg_pool s_seq)
            (Bundle.aggregate ~pool ~keys agg_pool s_par))
        [ []; [ "gender" ] ];
      check_agg_results_identical "pooled fused query" (Bundle.query seq plan)
        (Bundle.query ~pool par plan))

(* --- block sweeps ------------------------------------------------------

   A bundle spanning several blocks, and one whose rows are wider than a
   block, give the naive instances' bits, sequentially and on a pool. *)

let test_blocks_bit_identity () =
  Pool.with_pool ~domains:2 (fun p ->
      List.iter
        (fun (rows, reps) ->
          let b = Bundle.of_stochastic_table (sbp_table rows) (Rng.create ~seed:5 ()) ~n_reps:reps in
          let naive = Bundle.to_instances b in
          let each_instance msg f bundle =
            Array.iteri
              (fun r inst -> check_tables_identical (Printf.sprintf "%s, rep %d" msg r) (f naive.(r)) inst)
              (Bundle.to_instances bundle)
          in
          List.iter
            (fun pool ->
              List.iteri
                (fun pi pred ->
                  each_instance (Printf.sprintf "%dx%d select %d" rows reps pi) (Algebra.select pred)
                    (Bundle.select ?pool pred b))
                predicates;
              each_instance (Printf.sprintf "%dx%d extend" rows reps) (Algebra.extend derivations)
                (Bundle.extend ?pool derivations b);
              List.iter
                (fun keys ->
                  let plan = { plan with Bundle.group_keys = keys } in
                  check_agg_results_identical "fused query" (compose b plan)
                    (Bundle.query ?pool b plan))
                [ []; [ "gender" ] ])
            [ None; Some p ])
        [ (300, 17); (3, Mde_relational.Kernel.block + 300) ])

(* The fused sweep allocates per block, not per cell: marginal words per
   cell between 200 and 400 rows of 64 repetitions, so the per-call setup
   cancels. What remains is per row (the group key), spread over 64
   repetitions. [Gc.allocated_bytes] counts the minor heap's words only
   at a minor collection, so the measured call runs between two: from an
   empty minor heap, and counted in full. *)
let test_query_allocation () =
  let words rows =
    let b = Bundle.of_stochastic_table (sbp_table rows) (Rng.create ~seed:3 ()) ~n_reps:64 in
    let plan = { plan with Bundle.group_keys = [ "gender" ] } in
    ignore (Bundle.query b plan);
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Bundle.query b plan));
    Gc.minor ();
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let per_cell = (words 400 -. words 200) /. float_of_int (200 * 64) in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f words/cell <= 0.25" per_cell)
    true (per_cell <= 0.25)

(* --- survivors = popcount of presence ---------------------------------- *)

let test_survivors_popcount () =
  let st = sbp_table 15 in
  let b = Bundle.of_stochastic_table st (Rng.create ~seed:77 ()) ~n_reps:11 in
  let b = Bundle.select Expr.(col "sbp" > float 120.) b in
  let per_cell = ref 0 and per_row = ref 0 in
  for i = 0 to Bundle.row_count b - 1 do
    per_row := !per_row + Bundle.row_survivors b i;
    for r = 0 to Bundle.n_reps b - 1 do
      if Bundle.present b i r then incr per_cell
    done
  done;
  Alcotest.(check int) "survivors = per-cell walk" !per_cell (Bundle.survivors b);
  Alcotest.(check int) "survivors = row popcounts" !per_row (Bundle.survivors b)

(* --- join: per-instance parity -----------------------------------------

   A bundle selected on its uncertain column (presence differs by
   repetition) joined on [pid] with a dimension: covering every pid
   once (the bundle side passes through unindexed), missing one, and
   duplicating one, with the bundle on either side. Each repetition is
   the row algebra's join of that instance. *)

let test_join_parity () =
  let reps = 6 and n = 40 in
  let b =
    Bundle.select
      Expr.(col "sbp" > float 120.)
      (Bundle.of_stochastic_table (sbp_table n) (Rng.create ~seed:9 ()) ~n_reps:reps)
  in
  let naive = Bundle.to_instances b in
  let dim pids =
    Table.create
      (Schema.of_list [ ("dpid", Value.Tint); ("w", Value.Tint) ])
      (List.map (fun p -> [| v_int p; v_int (p * 10) |]) pids)
  in
  let pids = List.init n Fun.id in
  List.iter
    (fun (label, pids, passes) ->
      let d = dim pids in
      let db = Bundle.of_table d ~n_reps:reps in
      Alcotest.(check bool) (label ^ ": left index omitted") passes
        (Option.is_none
           (fst
              (Columnar.join_index
                 ([| Bundle.column b "pid" |], n)
                 ([| Bundle.column db "dpid" |], List.length pids))));
      let each msg joined oracle =
        Array.iteri
          (fun r inst -> check_tables_identical (Printf.sprintf "%s, rep %d" msg r) (oracle r) inst)
          (Bundle.to_instances joined)
      in
      each (label ^ ", bundle left")
        (Bundle.join ~on:[ ("pid", "dpid") ] b db)
        (fun r -> Algebra.equi_join ~on:[ ("pid", "dpid") ] naive.(r) d);
      each (label ^ ", bundle right")
        (Bundle.join ~on:[ ("dpid", "pid") ] db b)
        (fun r -> Algebra.equi_join ~on:[ ("dpid", "pid") ] d naive.(r)))
    [
      ("cover", List.rev pids, true);
      ("missing", List.filter (( <> ) 7) pids, false);
      ("duplicate", pids @ [ 7 ], false);
    ]

(* --- NaN keys: joins and grouping treat NaN = NaN ---------------------- *)

let test_nan_keys () =
  let schema =
    Schema.of_list [ ("k", Value.Tfloat); ("x", Value.Tfloat) ]
  in
  let t =
    Table.create schema
      [
        [| v_float nan; v_float 1. |];
        [| v_float 2.; v_float 10. |];
        [| v_float nan; v_float 5. |];
      ]
  in
  let b = Bundle.of_table t ~n_reps:3 in
  (match Bundle.aggregate ~keys:[ "k" ] [ ("s", Aggregate.Sum (Expr.col "x")) ] b with
  | groups ->
    Alcotest.(check int) "NaN rows form one group" 2 (List.length groups);
    let nan_group =
      List.find (fun (key, _) -> Value.equal key.(0) (v_float nan)) groups
    in
    let _, per_agg = nan_group in
    Array.iter
      (fun s -> Alcotest.(check (float 0.)) "NaN group sums both rows" 6. s)
      per_agg.(0));
  let right =
    Table.create
      (Schema.of_list [ ("rk", Value.Tfloat); ("y", Value.Tint) ])
      [ [| v_float nan; v_int 42 |] ]
  in
  let joined = Bundle.join ~on:[ ("k", "rk") ] b (Bundle.of_table right ~n_reps:3) in
  (* both NaN-keyed left rows match the NaN-keyed right row *)
  Alcotest.(check int) "NaN join matches" 2 (Bundle.row_count joined)

(* --- key validation ------------------------------------------------------ *)

(* --- rejected expressions: one error from every engine ------------------

   Shapes the typing rule rejects — branches of two kinds, arithmetic or
   negation on a string or bool, a non-boolean condition, a string
   aggregate source, a definition of another kind than declared — raise
   the same [Invalid_argument] from row Algebra, Columnar and Bundle
   (select, extend, aggregate and the fused query alike), before any row
   is read: over a table with rows and over one with none. *)

let test_rejected_expressions () =
  let b = Bundle.of_stochastic_table (sbp_table 6) (Rng.create ~seed:11 ()) ~n_reps:4 in
  let t = (Bundle.to_instances b).(0) in
  let none = Table.empty (Table.schema t) in
  let inputs = [ ("", t, b); (" (no rows)", none, Bundle.of_table none ~n_reps:4) ] in
  let raises msg runs =
    List.iter
      (fun (suffix, t, b) ->
        List.iter
          (fun (engine, run) ->
            Alcotest.check_raises (engine ^ suffix ^ ": " ^ msg) (Invalid_argument msg) (fun () ->
                run t b))
          runs)
      inputs
  in
  let query b (p : Bundle.plan) = ignore (Bundle.query b p) in
  let count = [ ("n", Aggregate.Count) ] in
  let plain = { Bundle.where_ = None; derive = []; group_keys = []; aggs = count } in
  let select msg e =
    raises msg
      [ ("algebra", fun t _ -> ignore (Algebra.select e t));
        ("columnar", fun t _ -> ignore (Columnar.select e (Columnar.of_table t)));
        ("bundle", fun _ b -> ignore (Bundle.select e b));
        ("query", fun _ b -> query b { plain with where_ = Some e }) ]
  in
  let extend msg def =
    raises msg
      [ ("algebra", fun t _ -> ignore (Algebra.extend [ def ] t));
        ("columnar", fun t _ -> ignore (Columnar.extend [ def ] (Columnar.of_table t)));
        ("bundle", fun _ b -> ignore (Bundle.extend [ def ] b));
        ("query", fun _ b -> query b { plain with derive = [ def ] }) ]
  in
  let aggregate msg ?(derive = []) agg =
    let aggs = [ ("a", agg) ] in
    raises msg
      [ ("algebra", fun t _ -> ignore (Algebra.group_by ~keys:[] ~aggs (Algebra.extend derive t)));
        ( "columnar",
          fun t _ ->
            ignore (Columnar.group_by ~keys:[] ~aggs (Columnar.extend derive (Columnar.of_table t))) );
        ("bundle", fun _ b -> ignore (Bundle.aggregate aggs (Bundle.extend derive b)));
        ("query", fun _ b -> query b { plain with derive; aggs }) ]
  in
  select "Expr: (IF (gender = F) THEN sbp ELSE pid) has branches of kinds float and int"
    Expr.(If (col "gender" = string "F", col "sbp", col "pid") > float 118.);
  select "Expr: (sbp + 1) is float, expected bool" Expr.(col "sbp" + float 1.);
  select "Expr: pid is int, expected bool" Expr.(col "pid" && bool true);
  select "Expr: gender is string, expected bool" Expr.(If (col "gender", bool true, Lit Value.Null));
  extend "Expr: gender is string, expected int or float"
    ("x", Value.Tfloat, Expr.(col "gender" + int 1));
  extend "Expr: (sbp > 1) is bool, expected int or float"
    ("x", Value.Tfloat, Expr.(Neg (col "sbp" > float 1.)));
  extend "Expr: sbp is float, expected int" ("x", Value.Tint, Expr.col "sbp");
  aggregate "Expr: gender is string, expected int or float or bool" (Aggregate.Sum (Expr.col "gender"));
  aggregate "Expr: gender is string, expected int or float or bool" (Aggregate.Max (Expr.col "gender"));
  aggregate "Expr: pid is int, expected bool" (Aggregate.Count_if (Expr.col "pid"));
  (* A derivation that is always Null keeps its declared type: its
     branch beside a float is rejected in the fused query as in compose. *)
  aggregate "Expr: (IF (sbp > 120) THEN none ELSE sbp) has branches of kinds int and float"
    ~derive:[ ("none", Value.Tint, Expr.(Lit Value.Null)) ]
    (Aggregate.Sum Expr.(If (col "sbp" > float 120., col "none", col "sbp")))

let test_key_validation () =
  (* [sbp] is uncertain in a bundle: a key on it is rejected up front. *)
  let b = Bundle.of_stochastic_table (sbp_table 6) (Rng.create ~seed:5 ()) ~n_reps:4 in
  let uncertain = Invalid_argument "Bundle: key column is uncertain" in
  let right =
    Bundle.of_table
      (Table.create (Schema.of_list [ ("rk", Value.Tfloat) ]) [ [| v_float 120. |] ])
      ~n_reps:4
  in
  Alcotest.check_raises "join on an uncertain key" uncertain (fun () ->
      ignore (Bundle.join ~on:[ ("sbp", "rk") ] b right));
  let plan keys =
    { Bundle.where_ = None; derive = []; group_keys = keys; aggs = [ ("n", Aggregate.Count) ] }
  in
  Alcotest.check_raises "query keyed on an uncertain column" uncertain (fun () ->
      ignore (Bundle.query b (plan [ "sbp" ])));
  (* A keyless query over zero rows is the one global group, empty. *)
  let empty = Bundle.of_stochastic_table (sbp_table 0) (Rng.create ~seed:5 ()) ~n_reps:4 in
  match Bundle.query empty (plan []) with
  | [ (key, per_agg) ] ->
    Alcotest.(check int) "no key values" 0 (Array.length key);
    Alcotest.(check (array (float 0.))) "zero counts" [| 0.; 0.; 0.; 0. |] per_agg.(0)
  | groups -> Alcotest.failf "%d groups, expected the one global group" (List.length groups)

(* --- Database.plan_samples --------------------------------------------- *)

let test_plan_samples_matches_instances () =
  let db = Database.create () in
  Database.add_stochastic db (sbp_table 25);
  let reps = 20 and seed = 55 in
  let samples =
    Database.plan_samples db (Rng.create ~seed ()) ~table:"SBP_DATA" ~reps plan
  in
  Alcotest.(check int) "one sample per repetition" reps (Array.length samples);
  (* oracle: realize instance r, run the plan naively, take the first
     aggregate (mean_sbp) *)
  let naive = St.instantiate_many (sbp_table 25) (Rng.create ~seed ()) reps in
  Array.iteri
    (fun r inst ->
      let inst = Algebra.select (Option.get plan.Bundle.where_) inst in
      let inst = Algebra.extend plan.Bundle.derive inst in
      let g =
        Algebra.group_by ~keys:[]
          ~aggs:[ ("mean_sbp", Algebra.Avg (Expr.col "sbp")) ]
          inst
      in
      let expect = agg_value_to_float (Table.rows g).(0).(0) in
      if not (float_bits_eq expect samples.(r)) then
        Alcotest.failf "rep %d: naive %h <> plan_samples %h" r expect samples.(r))
    naive;
  (* the pooled path is bit-identical too *)
  Pool.with_pool ~domains:2 (fun pool ->
      let pooled =
        Database.plan_samples ~pool db (Rng.create ~seed ()) ~table:"SBP_DATA" ~reps
          plan
      in
      Array.iteri
        (fun r x ->
          if not (float_bits_eq x pooled.(r)) then
            Alcotest.failf "pooled plan_samples differs at rep %d" r)
        samples)

let raises_invalid f =
  try
    ignore (f ());
    false
  with
  | Invalid_argument _ -> true
  | _ -> false

let test_plan_samples_validation () =
  let db = Database.create () in
  Database.add_stochastic db (sbp_table 5);
  let rng () = Rng.create ~seed:1 () in
  Alcotest.(check bool) "reps < 1" true
    (raises_invalid (fun () ->
         Database.plan_samples db (rng ()) ~table:"SBP_DATA" ~reps:0 plan));
  Alcotest.(check bool) "unknown table" true
    (raises_invalid (fun () ->
         Database.plan_samples db (rng ()) ~table:"NOPE" ~reps:4 plan));
  Alcotest.(check bool) "grouped plan" true
    (raises_invalid (fun () ->
         Database.plan_samples db (rng ()) ~table:"SBP_DATA" ~reps:4
           { plan with Bundle.group_keys = [ "gender" ] }));
  Alcotest.(check bool) "no aggregates" true
    (raises_invalid (fun () ->
         Database.plan_samples db (rng ()) ~table:"SBP_DATA" ~reps:4
           { plan with Bundle.aggs = [] }))

let () =
  Alcotest.run "mde_bundle"
    [
      ( "parity",
        [
          Alcotest.test_case "to_instances = instantiate_many" `Quick
            test_to_instances_matches_naive;
          Alcotest.test_case "signed zeros and NaN payloads keep their bits" `Quick
            test_signed_zero_and_nan_bits;
          Alcotest.test_case "params once per driver row" `Quick
            test_params_once_per_driver_row;
          Alcotest.test_case "select: kernel = interp = naive" `Quick
            test_select_parity;
          Alcotest.test_case "extend: kernel = interp = naive" `Quick
            test_extend_parity;
          Alcotest.test_case "aggregate: kernel = interp = naive" `Quick
            test_aggregate_parity;
          Alcotest.test_case "fused query = compose" `Quick
            test_query_fused_equals_compose;
          Alcotest.test_case "join = naive" `Quick test_join_parity;
          Alcotest.test_case "rejected expressions raise alike" `Quick test_rejected_expressions;
        ] );
      ( "parallel",
        [ Alcotest.test_case "pooled = sequential, bit for bit" `Quick
            test_pooled_bit_identity ] );
      ( "blocks",
        [
          Alcotest.test_case "multi-block sweeps = naive, pooled or not" `Quick
            test_blocks_bit_identity;
          Alcotest.test_case "query allocates per block, not per cell" `Quick
            test_query_allocation;
        ] );
      ( "presence",
        [ Alcotest.test_case "survivors = popcount" `Quick test_survivors_popcount ] );
      ( "nan-keys",
        [ Alcotest.test_case "NaN groups and joins" `Quick test_nan_keys ] );
      ( "keys",
        [ Alcotest.test_case "uncertain keys rejected, empty keyless query" `Quick
            test_key_validation ] );
      ( "plan-samples",
        [
          Alcotest.test_case "matches per-instance naive" `Quick
            test_plan_samples_matches_instances;
          Alcotest.test_case "validation" `Quick test_plan_samples_validation;
        ] );
    ]
