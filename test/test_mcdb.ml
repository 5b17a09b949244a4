open Mde_relational
module Rng = Mde_prob.Rng
module Vg = Mde_mcdb.Vg
module St = Mde_mcdb.Stochastic_table
module Bundle = Mde_mcdb.Bundle
module Estimator = Mde_mcdb.Estimator

let v_int i = Value.Int i
let v_str s = Value.String s
let v_float f = Value.Float f

(* The paper's SBP_DATA example: patients drive a Normal VG function
   parametrized from a one-row parameter table. *)
let patients_schema =
  Schema.of_list [ ("pid", Value.Tint); ("gender", Value.Tstring) ]

let patients n =
  Table.create patients_schema
    (List.init n (fun i ->
         [| v_int i; v_str (if i mod 2 = 0 then "F" else "M") |]))

let sbp_param = Table.create
    (Schema.of_list [ ("mean", Value.Tfloat); ("std", Value.Tfloat) ])
    [ [| v_float 120.; v_float 15. |] ]

let sbp_schema =
  Schema.of_list
    [ ("pid", Value.Tint); ("gender", Value.Tstring); ("sbp", Value.Tfloat) ]

let sbp_table n =
  St.define ~name:"SBP_DATA" ~schema:sbp_schema ~driver:(patients n) ~vg:Vg.normal
    ~params:(fun _ -> [ sbp_param ])
    ~combine:(fun driver vg_row -> [| driver.(0); driver.(1); vg_row.(0) |])

(* --- VG functions --- *)

let test_vg_normal_stats () =
  let rng = Rng.create ~seed:1 () in
  let xs =
    Array.init 20_000 (fun _ ->
        match Vg.normal.Vg.generate rng [ sbp_param ] with
        | [ [| Value.Float x |] ] -> x
        | _ -> Alcotest.fail "unexpected VG output")
  in
  Alcotest.(check (float 0.5)) "mean" 120. (Mde_prob.Stats.mean xs);
  Alcotest.(check (float 0.5)) "std" 15. (Mde_prob.Stats.std xs)

let test_vg_discrete_choice () =
  let weights =
    Table.create
      (Schema.of_list [ ("label", Value.Tstring); ("w", Value.Tfloat) ])
      [ [| v_str "a"; v_float 1. |]; [| v_str "b"; v_float 3. |] ]
  in
  let rng = Rng.create ~seed:2 () in
  let counts = Hashtbl.create 2 in
  for _ = 1 to 10_000 do
    match Vg.discrete_choice.Vg.generate rng [ weights ] with
    | [ [| Value.String s |] ] ->
      Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s))
    | _ -> Alcotest.fail "unexpected"
  done;
  let b = float_of_int (Hashtbl.find counts "b") in
  Alcotest.(check bool) "b ~ 75%" true (b > 7200. && b < 7800.)

let test_vg_backward_walk () =
  let param =
    Table.create
      (Schema.of_list [ ("price", Value.Tfloat); ("vol", Value.Tfloat) ])
      [ [| v_float 100.; v_float 0.01 |] ]
  in
  let vg = Vg.backward_walk ~steps:5 in
  let rng = Rng.create ~seed:3 () in
  let rows = vg.Vg.generate rng [ param ] in
  Alcotest.(check int) "6 rows" 6 (List.length rows);
  Alcotest.(check bool) "not row stable" false vg.Vg.row_stable;
  (match List.rev rows with
  | last :: _ -> Alcotest.(check (float 1e-9)) "anchored at today" 100. (Value.to_float last.(1))
  | [] -> Alcotest.fail "empty")

let test_vg_option_value_nonnegative () =
  let param =
    Table.create
      (Schema.of_list
         [ ("s0", Value.Tfloat); ("drift", Value.Tfloat); ("vol", Value.Tfloat) ])
      [ [| v_float 100.; v_float 0.; v_float 0.05 |] ]
  in
  let vg = Vg.option_value ~horizon:10 ~strike:105. in
  let rng = Rng.create ~seed:4 () in
  for _ = 1 to 1000 do
    match vg.Vg.generate rng [ param ] with
    | [ [| Value.Float payoff |] ] ->
      if payoff < 0. then Alcotest.fail "negative payoff"
    | _ -> Alcotest.fail "unexpected"
  done

let test_vg_resample_row () =
  let schema = Schema.of_list [ ("k", Value.Tint); ("v", Value.Tfloat) ] in
  let history =
    Table.create schema
      [ [| v_int 1; v_float 10. |]; [| v_int 2; v_float 20. |]; [| v_int 3; v_float 30. |] ]
  in
  let vg = Vg.resample_row ~output:schema in
  let rng = Rng.create ~seed:20 () in
  let counts = Array.make 4 0 in
  for _ = 1 to 3000 do
    match vg.Vg.generate rng [ history ] with
    | [ [| Value.Int k; Value.Float v |] ] ->
      Alcotest.(check (float 1e-9)) "row intact" (float_of_int (k * 10)) v;
      counts.(k) <- counts.(k) + 1
    | _ -> Alcotest.fail "unexpected shape"
  done;
  for k = 1 to 3 do
    Alcotest.(check bool) "roughly uniform" true (counts.(k) > 800 && counts.(k) < 1200)
  done;
  Alcotest.(check bool) "schema mismatch rejected" true
    (try
       ignore
         (vg.Vg.generate rng
            [ Table.create (Schema.of_list [ ("x", Value.Tint) ]) [ [| v_int 1 |] ] ]);
       false
     with Invalid_argument _ -> true)

(* --- stochastic tables --- *)

let test_instantiate_row_count () =
  let rng = Rng.create ~seed:5 () in
  let t = St.instantiate (sbp_table 37) rng in
  Alcotest.(check int) "one row per patient" 37 (Table.cardinality t);
  Alcotest.(check bool) "schema" true (Schema.equal sbp_schema (Table.schema t))

let test_instantiate_many_differ () =
  let rng = Rng.create ~seed:6 () in
  let instances = St.instantiate_many (sbp_table 5) rng 2 in
  let a = Table.column_floats instances.(0) "sbp" in
  let b = Table.column_floats instances.(1) "sbp" in
  Alcotest.(check bool) "realizations differ" true (a <> b)

let test_empty_driver () =
  let rng = Rng.create ~seed:19 () in
  (* A stochastic table over an empty driver realizes as an empty table. *)
  let st =
    St.define ~name:"EMPTY" ~schema:sbp_schema ~driver:(Table.empty patients_schema)
      ~vg:Vg.normal
      ~params:(fun _ -> [ sbp_param ])
      ~combine:(fun d v -> [| d.(0); d.(1); v.(0) |])
  in
  Alcotest.(check int) "no rows" 0 (Table.cardinality (St.instantiate st rng));
  let bundle = Bundle.of_stochastic_table st rng ~n_reps:5 in
  Alcotest.(check int) "empty bundle" 0 (Bundle.row_count bundle);
  match Bundle.aggregate [ ("n", Aggregate.Count) ] bundle with
  | [ (_, per) ] -> Alcotest.(check (float 0.)) "count 0" 0. per.(0).(0)
  | _ -> Alcotest.fail "expected the global group"

(* --- the Monte Carlo database facade --- *)

module Database = Mde_mcdb.Database

let test_database_instantiate () =
  let db = Database.create () in
  Database.add_table db "PATIENTS" (patients 12);
  Database.add_table db "SBP_PARAM" sbp_param;
  Database.add_stochastic db (sbp_table 12);
  Alcotest.(check (list string)) "deterministic" [ "PATIENTS"; "SBP_PARAM" ]
    (Database.deterministic_tables db);
  Alcotest.(check (list string)) "stochastic" [ "SBP_DATA" ] (Database.stochastic_tables db);
  let rng = Rng.create ~seed:30 () in
  let instance = Database.instantiate db rng in
  Alcotest.(check int) "realized rows" 12
    (Table.cardinality (Catalog.find instance "SBP_DATA"));
  Alcotest.(check int) "ordinary tables present" 12
    (Table.cardinality (Catalog.find instance "PATIENTS"))

let test_database_name_clash () =
  let db = Database.create () in
  Database.add_table db "X" (patients 2);
  Alcotest.(check bool) "stochastic clash rejected" true
    (try
       Database.add_stochastic db
         (St.define ~name:"X" ~schema:sbp_schema ~driver:(patients 1) ~vg:Vg.normal
            ~params:(fun _ -> [ sbp_param ])
            ~combine:(fun d v -> [| d.(0); d.(1); v.(0) |]));
       false
     with Invalid_argument _ -> true)

let test_database_monte_carlo () =
  let db = Database.create () in
  Database.add_stochastic db (sbp_table 40);
  let rng = Rng.create ~seed:31 () in
  (* Mean SBP over the realized table, per repetition. *)
  let query catalog =
    Mde_prob.Stats.mean (Table.column_floats (Catalog.find catalog "SBP_DATA") "sbp")
  in
  let samples = Database.monte_carlo db rng ~reps:200 ~query in
  Alcotest.(check int) "reps" 200 (Array.length samples);
  Alcotest.(check bool) "reps differ" true (samples.(0) <> samples.(1));
  let e = Database.estimate db rng ~reps:200 ~query in
  Alcotest.(check bool) "mean near 120" true (Float.abs (e.Estimator.mean -. 120.) < 2.);
  (* Replication-count validation must survive [-noassert] builds. *)
  Alcotest.(check bool) "reps = 0 raises Invalid_argument" true
    (try
       ignore (Database.monte_carlo db rng ~reps:0 ~query);
       false
     with
    | Invalid_argument _ -> true
    | _ -> false)

let test_database_estimate_instrumented () =
  (* Observability must never change an answer: the same seed yields a
     bit-identical estimate whether the default registry is the no-op or
     a live one — and the live run records its replication count. *)
  let db = Database.create () in
  Database.add_stochastic db (sbp_table 20);
  let query catalog =
    Mde_prob.Stats.mean (Table.column_floats (Catalog.find catalog "SBP_DATA") "sbp")
  in
  let plain = Database.estimate db (Rng.create ~seed:5 ()) ~reps:50 ~query in
  let registry = Mde_obs.create () in
  Mde_obs.set_default registry;
  let instrumented =
    Fun.protect
      ~finally:(fun () -> Mde_obs.set_default Mde_obs.noop)
      (fun () -> Database.estimate db (Rng.create ~seed:5 ()) ~reps:50 ~query)
  in
  Alcotest.(check (float 0.)) "mean bit-identical" plain.Estimator.mean
    instrumented.Estimator.mean;
  Alcotest.(check (float 0.)) "std bit-identical" plain.Estimator.std
    instrumented.Estimator.std;
  Alcotest.(check int) "replications counted" 50
    (Mde_obs.Counter.value (Mde_obs.counter registry "mde_mcdb_replications_total"));
  Alcotest.(check bool) "span recorded" true
    (List.exists (fun s -> s.Mde_obs.name = "mcdb.estimate") (Mde_obs.spans registry))

(* --- tuple bundles --- *)

let test_bundle_shape () =
  let rng = Rng.create ~seed:7 () in
  let b = Bundle.of_stochastic_table (sbp_table 10) rng ~n_reps:25 in
  Alcotest.(check int) "rows" 10 (Bundle.row_count b);
  Alcotest.(check int) "reps" 25 (Bundle.n_reps b);
  (* pid is deterministic across reps, sbp uncertain. *)
  let r0 = Bundle.realize_row b 0 0 and r1 = Bundle.realize_row b 0 1 in
  Alcotest.(check bool) "pid stable" true (Value.equal r0.(0) r1.(0))

let test_bundle_rejects_unstable_vg () =
  let st =
    St.define ~name:"walks" ~schema:(Schema.of_list [ ("step", Value.Tint); ("price", Value.Tfloat) ])
      ~driver:(patients 2)
      ~vg:(Vg.backward_walk ~steps:3)
      ~params:(fun _ ->
        [
          Table.create
            (Schema.of_list [ ("p", Value.Tfloat); ("v", Value.Tfloat) ])
            [ [| v_float 10.; v_float 0.1 |] ];
        ])
      ~combine:(fun _ vg_row -> vg_row)
  in
  let rng = Rng.create ~seed:8 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Bundle.of_stochastic_table st rng ~n_reps:2);
       false
     with Invalid_argument _ -> true)

(* Equivalence: bundle operators vs per-instance relational execution. *)
let bundle_and_instances () =
  let rng = Rng.create ~seed:9 () in
  let b = Bundle.of_stochastic_table (sbp_table 30) rng ~n_reps:40 in
  (b, Bundle.to_instances b)

let test_bundle_select_equivalence () =
  let b, instances = bundle_and_instances () in
  let pred = Expr.(col "sbp" > float 125.) in
  let selected = Bundle.select pred b in
  let per_rep = Bundle.to_instances selected in
  Array.iteri
    (fun r inst ->
      let expected = Algebra.select pred instances.(r) in
      Alcotest.(check int)
        (Printf.sprintf "rep %d cardinality" r)
        (Table.cardinality expected) (Table.cardinality inst))
    per_rep

let test_bundle_aggregate_equivalence () =
  let b, instances = bundle_and_instances () in
  let groups =
    Bundle.aggregate ~keys:[ "gender" ]
      [ ("n", Aggregate.Count); ("avg_sbp", Aggregate.Avg (Expr.col "sbp")) ]
      b
  in
  Alcotest.(check int) "two genders" 2 (List.length groups);
  List.iter
    (fun (key, per_agg) ->
      let gender = key.(0) in
      Array.iteri
        (fun r inst ->
          let expected =
            Algebra.group_by ~keys:[ "gender" ]
              ~aggs:[ ("n", Algebra.Count); ("avg", Algebra.Avg (Expr.col "sbp")) ]
              inst
            |> Algebra.select Expr.(col "gender" = Lit gender)
          in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "count rep %d" r)
            (Value.to_float (Table.get expected 0 "n"))
            per_agg.(0).(r);
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "avg rep %d" r)
            (Value.to_float (Table.get expected 0 "avg"))
            per_agg.(1).(r))
        instances)
    groups

let test_bundle_extend_and_join () =
  let b, _ = bundle_and_instances () in
  let extended =
    Bundle.extend [ ("high", Value.Tbool, Expr.(col "sbp" > float 140.)) ] b
  in
  Alcotest.(check int) "arity grew" 4 (Schema.arity (Bundle.schema extended));
  (* Join against a deterministic region table on pid. *)
  let region =
    Bundle.of_table
      (Table.create
         (Schema.of_list [ ("pid2", Value.Tint); ("region", Value.Tstring) ])
         (List.init 30 (fun i ->
              [| v_int i; v_str (if i < 15 then "east" else "west") |])))
      ~n_reps:(Bundle.n_reps b)
  in
  let joined = Bundle.join ~on:[ ("pid", "pid2") ] b region in
  Alcotest.(check int) "join preserves rows" 30 (Bundle.row_count joined);
  let groups =
    Bundle.aggregate ~keys:[ "region" ] [ ("n", Aggregate.Count) ] joined
  in
  Alcotest.(check int) "two regions" 2 (List.length groups)

let test_bundle_det_compression () =
  (* A VG that adds a constant yields Det cells, and selection on it is
     evaluated once (observable through equal results, cheaply). *)
  let const_vg =
    Vg.create ~name:"Const" ~output:(Schema.of_list [ ("value", Value.Tfloat) ])
      ~row_stable:true
      (fun _rng _params -> [ [| v_float 1.0 |] ])
  in
  let st =
    St.define ~name:"const" ~schema:(Schema.of_list [ ("pid", Value.Tint); ("value", Value.Tfloat) ])
      ~driver:(patients 5) ~vg:const_vg
      ~params:(fun _ -> [ sbp_param ])
      ~combine:(fun d v -> [| d.(0); v.(0) |])
  in
  let rng = Rng.create ~seed:10 () in
  let b = Bundle.of_stochastic_table st rng ~n_reps:10 in
  Alcotest.(check bool) "constant column stored deterministically" true
    (Column.det (Bundle.column b "value"));
  let selected = Bundle.select Expr.(col "value" > float 0.5) b in
  for r = 0 to 9 do
    Alcotest.(check bool) "all present" true (Bundle.present selected 0 r)
  done

(* --- estimators --- *)

let test_estimator_basic () =
  let rng = Rng.create ~seed:11 () in
  let xs = Mde_prob.Dist.sample_n (Mde_prob.Dist.Normal { mean = 10.; std = 2. }) rng 5000 in
  let e = Estimator.of_samples xs in
  Alcotest.(check bool) "mean close" true (Float.abs (e.Estimator.mean -. 10.) < 0.15);
  let lo, hi = e.Estimator.ci95 in
  Alcotest.(check bool) "ci contains" true (lo < 10. && 10. < hi)

let test_estimator_nan_dropped () =
  let e = Estimator.of_samples [| 1.; nan; 3.; nan; 5. |] in
  Alcotest.(check int) "n" 3 e.Estimator.n;
  Alcotest.(check int) "dropped reported" 2 e.Estimator.dropped;
  Alcotest.(check (float 1e-9)) "mean" 3. e.Estimator.mean;
  let clean = Estimator.of_samples [| 1.; 2.; 3. |] in
  Alcotest.(check int) "no drops on clean input" 0 clean.Estimator.dropped

(* Validation must raise [Invalid_argument] — never [Assert_failure],
   which [-noassert] builds compile away — so the checks are probed with
   an explicit handler rather than [check_raises]. *)
let raises_invalid f =
  try
    ignore (f ());
    false
  with
  | Invalid_argument _ -> true
  | _ -> false

let test_estimator_all_nan () =
  let all_nan = [| nan; nan; nan |] in
  Alcotest.(check bool) "of_samples" true
    (raises_invalid (fun () -> Estimator.of_samples all_nan));
  Alcotest.(check bool) "quantile" true
    (raises_invalid (fun () -> Estimator.quantile all_nan 0.5));
  Alcotest.(check bool) "quantile_ci" true
    (raises_invalid (fun () -> Estimator.quantile_ci all_nan 0.5 0.95));
  Alcotest.(check bool) "extreme_quantile" true
    (raises_invalid (fun () -> Estimator.extreme_quantile all_nan 0.9));
  Alcotest.(check bool) "conditional_tail_expectation" true
    (raises_invalid (fun () -> Estimator.conditional_tail_expectation all_nan 0.9));
  Alcotest.(check bool) "threshold_probability" true
    (raises_invalid (fun () -> Estimator.threshold_probability all_nan 0.));
  (* The error message must name the drop count so the caller can see
     every repetition was empty. *)
  try ignore (Estimator.of_samples all_nan)
  with Invalid_argument msg ->
    let needle = "all 3 samples" in
    let n = String.length needle and m = String.length msg in
    let rec contains i = i + n <= m && (String.sub msg i n = needle || contains (i + 1)) in
    Alcotest.(check bool)
      (Printf.sprintf "message %S names the count" msg)
      true (contains 0)

let test_estimator_validation_no_assert () =
  let xs = Array.init 100 float_of_int in
  Alcotest.(check bool) "quantile_ci p out of range" true
    (raises_invalid (fun () -> Estimator.quantile_ci xs 1.5 0.95));
  Alcotest.(check bool) "quantile_ci level out of range" true
    (raises_invalid (fun () -> Estimator.quantile_ci xs 0.5 0.));
  Alcotest.(check bool) "quantile_ci too few samples" true
    (raises_invalid (fun () -> Estimator.quantile_ci [| 1. |] 0.5 0.95));
  Alcotest.(check bool) "extreme_quantile p = 0" true
    (raises_invalid (fun () -> Estimator.extreme_quantile xs 0.));
  Alcotest.(check bool) "extreme_quantile p = 1" true
    (raises_invalid (fun () -> Estimator.extreme_quantile xs 1.));
  Alcotest.(check bool) "extreme_quantile nan p" true
    (raises_invalid (fun () -> Estimator.extreme_quantile xs nan));
  Alcotest.(check bool) "threshold_probability empty" true
    (raises_invalid (fun () -> Estimator.threshold_probability [||] 0.))

let test_estimator_pp_consistent () =
  (* The printed ± half-width must be the stored interval's half-width
     (z = 1.959963...), not a separately hardcoded 1.96·SE. *)
  let e = Estimator.of_samples [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |] in
  let printed = Format.asprintf "%a" Estimator.pp_estimate e in
  let lo, hi = e.Estimator.ci95 in
  let expected = Printf.sprintf "%.3g" ((hi -. lo) /. 2.) in
  Alcotest.(check bool)
    (Printf.sprintf "printed %S carries half-width %s" printed expected)
    true
    (let pm = Printf.sprintf "\xc2\xb1 %s " expected in
     let rec contains i =
       if i + String.length pm > String.length printed then false
       else String.sub printed i (String.length pm) = pm || contains (i + 1)
     in
     contains 0)

let test_threshold_probability () =
  let xs = Array.init 1000 (fun i -> float_of_int i) in
  let p, (lo, hi) = Estimator.threshold_probability xs 499.5 in
  Alcotest.(check (float 1e-9)) "phat" 0.5 p;
  Alcotest.(check bool) "wilson interval" true (lo < 0.5 && 0.5 < hi);
  Alcotest.(check bool) "decision" true
    (Estimator.exceeds_with_probability xs ~cutoff:100. ~prob:0.5)

let test_extreme_quantile_guard () =
  Alcotest.(check bool) "too few samples raises" true
    (try
       ignore (Estimator.extreme_quantile (Array.init 10 float_of_int) 0.999);
       false
     with Invalid_argument _ -> true);
  let xs = Array.init 10_000 float_of_int in
  Alcotest.(check bool) "q99 large" true (Estimator.extreme_quantile xs 0.99 > 9800.)

let test_conditional_tail_expectation () =
  let xs = Array.init 100 (fun i -> float_of_int i) in
  let cte = Estimator.conditional_tail_expectation xs 0.9 in
  Alcotest.(check bool) "CTE above quantile" true (cte >= 89.)

let test_quantile_ci_orders () =
  let rng = Rng.create ~seed:12 () in
  let xs = Mde_prob.Dist.sample_n (Mde_prob.Dist.Uniform (0., 1.)) rng 2000 in
  let lo, hi = Estimator.quantile_ci xs 0.5 0.95 in
  Alcotest.(check bool) "brackets median" true (lo <= 0.5 && 0.5 <= hi)

let test_quantile_ci_coverage () =
  (* Order-statistic CI for the median: ~95% coverage over repeated
     samples. *)
  let rng = Rng.create ~seed:21 () in
  let hits = ref 0 in
  let trials = 300 in
  for _ = 1 to trials do
    let xs = Mde_prob.Dist.sample_n (Mde_prob.Dist.Normal { mean = 0.; std = 1. }) rng 100 in
    let lo, hi = Estimator.quantile_ci xs 0.5 0.95 in
    if lo <= 0. && 0. <= hi then incr hits
  done;
  let coverage = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.2f" coverage)
    true
    (coverage > 0.88 && coverage <= 1.0)

let test_quantiles_match_per_call () =
  let rng = Rng.create ~seed:33 () in
  let xs = Mde_prob.Dist.sample_n (Mde_prob.Dist.Normal { mean = 5.; std = 2. }) rng 500 in
  let ps = [| 0.; 0.01; 0.25; 0.5; 0.75; 0.9; 0.99; 1. |] in
  let qs = Estimator.quantiles xs ps in
  Array.iteri
    (fun i p ->
      let expect = Estimator.quantile xs p in
      Alcotest.(check bool)
        (Printf.sprintf "p=%.2f single-sort = per-call" p)
        true
        (Int64.equal (Int64.bits_of_float expect) (Int64.bits_of_float qs.(i))))
    ps;
  Alcotest.(check bool) "empty raises" true
    (try ignore (Estimator.quantiles [||] [| 0.5 |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "p out of range raises" true
    (try ignore (Estimator.quantiles xs [| 1.5 |]); false
     with Invalid_argument _ -> true)

let test_tail_estimate_matches_per_call () =
  let rng = Rng.create ~seed:34 () in
  let xs = Mde_prob.Dist.sample_n (Mde_prob.Dist.Uniform (0., 100.)) rng 400 in
  List.iter
    (fun p ->
      let q, (lo, hi) = Estimator.tail_estimate xs ~p ~level:0.95 in
      let q' = Estimator.extreme_quantile xs p in
      let lo', hi' = Estimator.quantile_ci xs p 0.95 in
      let eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      Alcotest.(check bool)
        (Printf.sprintf "p=%.2f point estimate" p)
        true (eq q q');
      Alcotest.(check bool) "ci" true (eq lo lo' && eq hi hi'))
    [ 0.5; 0.9; 0.95 ];
  Alcotest.(check bool) "empty tail raises" true
    (try ignore (Estimator.tail_estimate (Array.init 5 float_of_int) ~p:0.999 ~level:0.95); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "level out of range raises" true
    (try ignore (Estimator.tail_estimate xs ~p:0.9 ~level:1.5); false
     with Invalid_argument _ -> true)

(* What-if revenue query: full pipeline through bundles (integration). *)
let test_whatif_revenue_pipeline () =
  let customers =
    Table.create
      (Schema.of_list
         [ ("cid", Value.Tint); ("region", Value.Tstring); ("age", Value.Tint) ])
      (List.init 40 (fun i ->
           [|
             v_int i;
             v_str (if i mod 2 = 0 then "east" else "west");
             v_int (20 + (i mod 30));
           |]))
  in
  let demand_param =
    Table.create
      (Schema.of_list
         [ ("alpha", Value.Tfloat); ("beta", Value.Tfloat); ("price", Value.Tfloat) ])
      [ [| v_float 2.0; v_float 1.0; v_float 10.5 |] ]
  in
  let history =
    Table.create (Schema.of_list [ ("q", Value.Tfloat) ]) [ [| v_float 3. |]; [| v_float 2. |] ]
  in
  let st =
    St.define ~name:"DEMAND"
      ~schema:
        (Schema.of_list
           [
             ("cid", Value.Tint);
             ("region", Value.Tstring);
             ("age", Value.Tint);
             ("demand", Value.Tfloat);
           ])
      ~driver:customers ~vg:Vg.bayesian_demand
      ~params:(fun _ -> [ demand_param; history ])
      ~combine:(fun d v -> [| d.(0); d.(1); d.(2); v.(0) |])
  in
  let rng = Rng.create ~seed:13 () in
  let b = Bundle.of_stochastic_table st rng ~n_reps:60 in
  let east_young =
    Bundle.select Expr.(col "region" = string "east" && col "age" < int 30) b
  in
  let revenue =
    Bundle.extend
      [ ("revenue", Value.Tfloat, Expr.(col "demand" * float 10.5)) ]
      east_young
  in
  match Bundle.aggregate [ ("total", Aggregate.Sum (Expr.col "revenue")) ] revenue with
  | [ (_, per_agg) ] ->
    let estimate = Estimator.of_samples per_agg.(0) in
    Alcotest.(check bool) "positive revenue" true (estimate.Estimator.mean > 0.);
    Alcotest.(check int) "all reps" 60 estimate.Estimator.n
  | _ -> Alcotest.fail "expected one group"

(* --- realization: instantiate ≡ the reference row construction ---

   [instantiate] writes combined cells straight into typed columns and
   shares pass-through driver columns; the reference is the boxed row
   construction it replaced, [Table.create] over the concatenated
   [generate_for_row] outputs on the same stream. Cells must agree by
   [Value.identical]: same constructor, bitwise floats. *)

let check_identical msg expected actual =
  Alcotest.(check bool) (msg ^ ": schema") true
    (Schema.equal (Table.schema expected) (Table.schema actual));
  Alcotest.(check int) (msg ^ ": cardinality") (Table.cardinality expected)
    (Table.cardinality actual);
  Array.iteri
    (fun i row ->
      let got = (Table.rows actual).(i) in
      if not (Array.length row = Array.length got && Array.for_all2 Value.identical row got)
      then Alcotest.failf "%s: row %d differs" msg i)
    (Table.rows expected)

let reference st rng =
  Table.create (St.schema st)
    (List.concat_map (St.generate_for_row st rng) (Array.to_list (Table.rows (St.driver st))))

let driver_schema =
  Schema.of_list
    [ ("i", Value.Tint); ("x", Value.Tfloat); ("s", Value.Tstring); ("b", Value.Tbool) ]

(* Cells with nulls, signed zeros and two NaN payloads. *)
let driver_cell rng = function
  | 0 -> if Rng.int rng 5 = 0 then Value.Null else v_int (Rng.int rng 7 - 3)
  | 1 -> (
    match Rng.int rng 7 with
    | 0 -> Value.Null
    | 1 -> v_float (-0.)
    | 2 -> v_float 0.
    | 3 -> v_float nan
    | 4 -> v_float (Int64.float_of_bits 0x7FF8000000000001L)
    | _ -> v_float (Rng.float rng))
  | 2 -> ( match Rng.int rng 4 with 0 -> Value.Null | k -> v_str (String.make 1 "xyz".[k - 1]))
  | _ -> ( match Rng.int rng 3 with 0 -> Value.Null | k -> Value.Bool (k = 1))

(* Row-backed, or column-backed over the same cells (its rows are then
   rebuilt from the columns, so no cell is shared with a row-backed
   twin). *)
let random_driver rng ~rows ~column_backed =
  let t =
    Table.create driver_schema
      (List.init rows (fun _ -> Array.init 4 (driver_cell rng)))
  in
  if column_backed then Table.of_columns driver_schema ~rows (Table.columns t) else t

let one_row_table names cells =
  Table.create (Schema.of_list names) [ Array.of_list cells ]

(* The VG functions under test: (VG, its parameter tables). *)
let vg_cases =
  let resample_schema = Schema.of_list [ ("k", Value.Tint); ("v", Value.Tfloat) ] in
  [|
    ( Vg.normal,
      [ one_row_table [ ("mean", Value.Tfloat); ("std", Value.Tfloat) ] [ v_float 1.; v_float 2. ] ] );
    (Vg.poisson, [ one_row_table [ ("rate", Value.Tfloat) ] [ v_float 3. ] ]);
    ( Vg.discrete_choice,
      [
        Table.create
          (Schema.of_list [ ("label", Value.Tstring); ("w", Value.Tfloat) ])
          [ [| v_str "a"; v_float 1. |]; [| Value.Null; v_float 1. |]; [| v_str "c"; v_float 2. |] ];
      ] );
    ( Vg.resample_row ~output:resample_schema,
      [
        Table.create resample_schema
          [
            [| v_int 1; v_float (-0.) |];
            [| Value.Null; v_float nan |];
            [| v_int 3; Value.Null |];
          ];
      ] );
    ( Vg.backward_walk ~steps:2,
      [ one_row_table [ ("p", Value.Tfloat); ("vol", Value.Tfloat) ] [ v_float 10.; v_float 0.1 ] ] );
  |]

let copy_cell = function
  | Value.Null -> Value.Null
  | Value.Int i -> Value.Int i
  | Value.Float f -> Value.Float f
  | Value.String s -> Value.String (String.sub s 0 (String.length s))
  | Value.Bool b -> Value.Bool b

(* Output schema: the driver columns [perm] picks (in that order,
   repeats allowed), then the VG's columns. [mode]: 0 passes driver
   cells through, 1 copies them by value, 2 passes the first [switch]
   combined rows through and copies the rest. *)
let realization_table ~driver ~vg:(vg, params) ~perm ~mode ~switch =
  let dcols = Array.of_list (Schema.columns driver_schema) in
  let schema =
    Schema.create
      (List.mapi (fun n k -> { Schema.name = Printf.sprintf "d%d" n; ty = dcols.(k).ty }) perm
      @ Schema.columns vg.Vg.output)
  in
  let perm = Array.of_list perm in
  let calls = ref 0 in
  let combine d v =
    incr calls;
    let pass = mode = 0 || (mode = 2 && !calls <= switch) in
    Array.append (Array.map (fun k -> if pass then d.(k) else copy_cell d.(k)) perm) v
  in
  St.define ~name:"R" ~schema ~driver ~vg ~params:(fun _ -> params) ~combine

let perms = [| [ 0; 1; 2; 3 ]; [ 3; 0; 2; 1 ]; [ 1; 1; 0 ]; [ 2 ]; [] |]

let realization_gen =
  QCheck.Gen.(
    tup2
      (tup4 (int_bound 10_000) (int_bound 12) bool (int_bound (Array.length vg_cases - 1)))
      (tup3 (int_bound (Array.length perms - 1)) (int_bound 2) (int_bound 12)))

let print_case ((seed, rows, column_backed, vg), (perm, mode, switch)) =
  Printf.sprintf "seed=%d rows=%d column_backed=%b vg=%d perm=%d mode=%d switch=%d" seed
    rows column_backed vg perm mode switch

let realization_case ((seed, rows, column_backed, vg), (perm, mode, switch)) =
  let driver = random_driver (Rng.create ~seed ()) ~rows ~column_backed in
  realization_table ~driver ~vg:vg_cases.(vg) ~perm:perms.(perm) ~mode ~switch

let prop_instantiate_matches_reference =
  QCheck.Test.make ~name:"instantiate == Table.create over generate_for_row" ~count:300
    (QCheck.make ~print:print_case realization_gen)
    (fun ((seed, _, _, _), _ as case) ->
      let st = realization_case case in
      let expected = reference st (Rng.create ~seed:(seed + 1) ()) in
      check_identical "instance" expected (St.instantiate st (Rng.create ~seed:(seed + 1) ()));
      true)

(* Bundle realization [r] is naive instance [r], sequentially and on a
   2-domain pool, for every row-stable VG and combine mode. Up to 40
   repetitions: a row's null bits then span several bytes, and pooled
   chunks split one row's repetitions. *)
let prop_bundle_matches_instances =
  QCheck.Test.make ~name:"bundle realization r == instance r (sequential, pooled)" ~count:60
    (QCheck.make ~print:print_case realization_gen)
    (fun ((seed, rows, column_backed, vg), rest) ->
      let vg = vg mod 4 (* the row-stable ones *) in
      let st = realization_case ((seed, rows, column_backed, vg), rest) in
      let reps = 1 + (seed mod 40) in
      let naive = St.instantiate_many st (Rng.create ~seed ()) reps in
      let check label b =
        Array.iteri
          (fun r inst -> check_identical (Printf.sprintf "%s rep %d" label r) naive.(r) inst)
          (Bundle.to_instances b)
      in
      check "sequential" (Bundle.of_stochastic_table st (Rng.create ~seed ()) ~n_reps:reps);
      Mde_par.Pool.with_pool ~domains:2 (fun pool ->
          check "pooled"
            (Bundle.of_stochastic_table ~pool st (Rng.create ~seed ()) ~n_reps:reps));
      true)

let test_pass_through_shares_driver_column () =
  let st = sbp_table 30 in
  let driver = St.driver st in
  let inst = St.instantiate st (Rng.create ~seed:40 ()) in
  let dcols = Table.columns driver and cols = Table.columns inst in
  Alcotest.(check bool) "pid is the driver's column" true (cols.(0) == dcols.(0));
  Alcotest.(check bool) "gender is the driver's column" true (cols.(1) == dcols.(1));
  check_identical "instance" (reference st (Rng.create ~seed:40 ())) inst;
  (* A multi-row VG: each driver cell passes through to several output
     rows, so the column is a gather view of the driver's column. *)
  let walk =
    realization_table
      ~driver:(random_driver (Rng.create ~seed:41 ()) ~rows:7 ~column_backed:false)
      ~vg:vg_cases.(4) ~perm:[ 0; 1 ] ~mode:0 ~switch:0
  in
  let inst = St.instantiate walk (Rng.create ~seed:42 ()) in
  Alcotest.(check int) "3 rows per driver row" 21 (Table.cardinality inst);
  Alcotest.(check bool) "pass-through column is an unread view" false
    (Column.materialized (Table.columns inst).(0));
  check_identical "multi-row instance" (reference walk (Rng.create ~seed:42 ())) inst

(* A [combine] putting a string into a float column: both the naive
   instance and the bundle reject it with [Table.of_rows]'s error. *)
let test_mistyped_combine_raises () =
  let st =
    St.define ~name:"BAD"
      ~schema:(Schema.of_list [ ("pid", Value.Tint); ("v", Value.Tfloat) ])
      ~driver:(patients 4) ~vg:Vg.normal
      ~params:(fun _ -> [ sbp_param ])
      ~combine:(fun d _ -> [| d.(0); d.(1) |])
  in
  let error f =
    match f () with
    | _ -> Alcotest.fail "mistyped cell accepted"
    | exception Invalid_argument msg -> msg
  in
  let expected = {|Table: column "v" expects float, got string|} in
  Alcotest.(check string) "instantiate" expected
    (error (fun () -> St.instantiate st (Rng.create ~seed:1 ())));
  Alcotest.(check string) "bundle" expected
    (error (fun () -> Bundle.of_stochastic_table st (Rng.create ~seed:1 ()) ~n_reps:4));
  Alcotest.(check string) "reference" expected
    (error (fun () -> reference st (Rng.create ~seed:1 ())));
  let short =
    St.define ~name:"SHORT" ~schema:sbp_schema ~driver:(patients 3) ~vg:Vg.normal
      ~params:(fun _ -> [ sbp_param ])
      ~combine:(fun d _ -> [| d.(0) |])
  in
  Alcotest.(check string) "arity" "Table: row arity 1, schema arity 3"
    (error (fun () -> St.instantiate short (Rng.create ~seed:1 ())))

(* Minor words [instantiate] spends per driver row beyond running
   [generate_for_row] on every driver row. Those calls already allocate
   the VG's rows and the combined rows; the typed columns add nothing
   per row, where boxed staging consed, reversed and re-checked every
   row. *)
let test_instantiate_allocation () =
  let rows = 2000 in
  let st = sbp_table rows in
  let drows = Table.rows (St.driver st) in
  ignore (St.instantiate st (Rng.create ~seed:3 ()));
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let generate =
    words (fun () ->
        let rng = Rng.create ~seed:3 () in
        Array.iter (fun d -> ignore (Sys.opaque_identity (St.generate_for_row st rng d))) drows)
  in
  let instantiate = words (fun () -> St.instantiate st (Rng.create ~seed:3 ())) in
  let extra = (instantiate -. generate) /. float_of_int rows in
  Alcotest.(check bool)
    (Printf.sprintf "instantiate: %.2f words per row beyond generate_for_row <= 0.5" extra)
    true (extra <= 0.5)

let () =
  Alcotest.run "mde_mcdb"
    [
      ( "vg",
        [
          Alcotest.test_case "normal stats" `Slow test_vg_normal_stats;
          Alcotest.test_case "discrete choice" `Quick test_vg_discrete_choice;
          Alcotest.test_case "backward walk" `Quick test_vg_backward_walk;
          Alcotest.test_case "option payoff >= 0" `Quick test_vg_option_value_nonnegative;
          Alcotest.test_case "bootstrap resample" `Quick test_vg_resample_row;
        ] );
      ( "stochastic_table",
        [
          Alcotest.test_case "row count" `Quick test_instantiate_row_count;
          Alcotest.test_case "instances differ" `Quick test_instantiate_many_differ;
          Alcotest.test_case "empty driver" `Quick test_empty_driver;
        ] );
      ( "realization",
        [
          QCheck_alcotest.to_alcotest prop_instantiate_matches_reference;
          QCheck_alcotest.to_alcotest prop_bundle_matches_instances;
          Alcotest.test_case "pass-through shares the driver column" `Quick
            test_pass_through_shares_driver_column;
          Alcotest.test_case "mistyped combine raises" `Quick test_mistyped_combine_raises;
          Alcotest.test_case "allocation per row" `Quick test_instantiate_allocation;
        ] );
      ( "database",
        [
          Alcotest.test_case "instantiate" `Quick test_database_instantiate;
          Alcotest.test_case "name clash" `Quick test_database_name_clash;
          Alcotest.test_case "monte carlo" `Quick test_database_monte_carlo;
          Alcotest.test_case "instrumented estimate bit-identical" `Quick
            test_database_estimate_instrumented;
        ] );
      ( "bundle",
        [
          Alcotest.test_case "shape" `Quick test_bundle_shape;
          Alcotest.test_case "rejects unstable VG" `Quick test_bundle_rejects_unstable_vg;
          Alcotest.test_case "select = naive" `Quick test_bundle_select_equivalence;
          Alcotest.test_case "aggregate = naive" `Quick test_bundle_aggregate_equivalence;
          Alcotest.test_case "extend + join" `Quick test_bundle_extend_and_join;
          Alcotest.test_case "det compression" `Quick test_bundle_det_compression;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "basic" `Quick test_estimator_basic;
          Alcotest.test_case "nan dropped" `Quick test_estimator_nan_dropped;
          Alcotest.test_case "all-NaN raises" `Quick test_estimator_all_nan;
          Alcotest.test_case "validation survives -noassert" `Quick
            test_estimator_validation_no_assert;
          Alcotest.test_case "pp half-width = CI" `Quick test_estimator_pp_consistent;
          Alcotest.test_case "threshold query" `Quick test_threshold_probability;
          Alcotest.test_case "extreme quantile" `Quick test_extreme_quantile_guard;
          Alcotest.test_case "tail expectation" `Quick test_conditional_tail_expectation;
          Alcotest.test_case "quantile CI" `Quick test_quantile_ci_orders;
          Alcotest.test_case "quantile CI coverage" `Slow test_quantile_ci_coverage;
          Alcotest.test_case "multi-quantile = per-call" `Quick
            test_quantiles_match_per_call;
          Alcotest.test_case "tail_estimate = per-call pair" `Quick
            test_tail_estimate_matches_per_call;
        ] );
      ( "integration",
        [ Alcotest.test_case "what-if revenue" `Quick test_whatif_revenue_pipeline ] );
    ]
