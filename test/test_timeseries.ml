module Series = Mde_timeseries.Series
module Spline = Mde_timeseries.Spline
module Sgd = Mde_timeseries.Sgd
module Align = Mde_timeseries.Align
module Mr_align = Mde_timeseries.Mr_align
module Schema_map = Mde_timeseries.Schema_map
module Forecast = Mde_timeseries.Forecast
module Synthetic = Mde_timeseries.Synthetic
module Rng = Mde_prob.Rng
open Mde_relational

let check_close eps = Alcotest.(check (float eps))

(* --- Series --- *)

let test_series_validation () =
  Alcotest.(check bool) "non-increasing rejected" true
    (try
       ignore (Series.create ~times:[| 0.; 0. |] ~values:[| 1.; 2. |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       ignore (Series.create ~times:[| 0.; 1. |] ~values:[| 1. |]);
       false
     with Invalid_argument _ -> true)

(* Public preconditions raise [Invalid_argument], also under
   [-noassert]. *)
let test_invalid_inputs_raise () =
  let raises label f =
    Alcotest.(check bool) label true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  let two = Series.of_pairs [ (0., 1.); (1., 2.) ] and one = Series.of_pairs [ (0., 1.) ] in
  let tri = Mde_linalg.Tridiag.create ~lower:[| 0.; 1. |] ~diag:[| 2.; 2. |] ~upper:[| 1.; 0. |] in
  let problem = Sgd.of_tridiag tri [| 1.; 1. |] in
  let rng = Rng.create ~seed:1 () and schedule = Sgd.Row_normalized 1. in
  raises "regular_times count 0" (fun () -> Series.regular_times ~start:0. ~step:1. ~count:0);
  raises "regular_times step nan" (fun () -> Series.regular_times ~start:0. ~step:nan ~count:3);
  raises "of_tridiag length" (fun () -> Sgd.of_tridiag tri [| 1. |]);
  raises "sgd no rows" (fun () -> Sgd.sgd ~rng ~schedule ~iters:1 { Sgd.dim = 2; rows = [||] });
  raises "strata dim 0" (fun () -> Sgd.tridiagonal_strata ~dim:0);
  raises "dsgd no strata" (fun () -> Sgd.dsgd ~rng ~schedule ~sub_epochs:1 ~strata:[||] problem);
  raises "housing years" (fun () -> Synthetic.housing_index ~start_year:2000. ~bust_year:1990. ());
  raises "smooth knots" (fun () -> Synthetic.smooth_signal ~knots:1 ~span:1. ());
  raises "smooth span" (fun () -> Synthetic.smooth_signal ~knots:4 ~span:0. ());
  raises "windows one point" (fun () -> Mr_align.windows one);
  raises "windows sigma" (fun () -> Mr_align.windows ~sigma:[| 0. |] two);
  raises "interpolate one point" (fun () ->
      Mr_align.interpolate ~kind:`Linear one ~target_times:[| 0. |]);
  let fit = Forecast.fit Forecast.Linear_trend (Series.of_pairs [ (0., 1.); (1., 2.); (2., 3.) ]) in
  raises "extrapolate horizon 0" (fun () -> Forecast.extrapolate fit ~horizon:0)

let test_series_locate () =
  let s = Series.of_pairs [ (0., 0.); (1., 1.); (2., 4.); (5., 25.) ] in
  Alcotest.(check int) "inside" 1 (Series.locate s 1.5);
  Alcotest.(check int) "below clamps" 0 (Series.locate s (-3.));
  Alcotest.(check int) "above clamps" 2 (Series.locate s 100.);
  Alcotest.(check int) "at knot" 2 (Series.locate s 2.)

let test_series_sub_before () =
  let s = Series.of_pairs [ (0., 0.); (1., 1.); (2., 2.) ] in
  Alcotest.(check int) "cut" 2 (Series.length (Series.sub_before s 1.5))

(* --- Spline --- *)

let sample_series () =
  Synthetic.smooth_signal ~seed:5 ~knots:25 ~span:10. ()

let test_spline_interpolates_knots () =
  let s = sample_series () in
  let spline = Spline.fit s in
  Array.iteri
    (fun i t ->
      check_close 1e-9
        (Printf.sprintf "knot %d" i)
        (Series.values s).(i)
        (Spline.eval spline t))
    (Series.times s)

let test_spline_linear_data_stays_linear () =
  (* For data on a straight line the natural spline IS that line. *)
  let times = Array.init 10 float_of_int in
  let s = Series.create ~times ~values:(Array.map (fun t -> (2. *. t) +. 1.) times) in
  let spline = Spline.fit s in
  List.iter
    (fun t -> check_close 1e-9 "linear" ((2. *. t) +. 1.) (Spline.eval spline t))
    [ 0.5; 3.3; 7.9 ];
  Array.iter (fun sg -> check_close 1e-9 "sigma 0" 0. sg) (Spline.sigma spline)

let test_spline_two_points () =
  let s = Series.of_pairs [ (0., 1.); (2., 5.) ] in
  let spline = Spline.fit s in
  check_close 1e-9 "midpoint linear" 3. (Spline.eval spline 1.)

let test_spline_smoothness () =
  (* Approximation quality on a smooth function: denser knots shrink the
     max error. *)
  let f t = sin t in
  let build n =
    let times = Array.init n (fun i -> 6.28 *. float_of_int i /. float_of_int (n - 1)) in
    Spline.fit (Series.create ~times ~values:(Array.map f times))
  in
  let max_err spline =
    let worst = ref 0. in
    for i = 0 to 200 do
      let t = 6.28 *. float_of_int i /. 200. in
      worst := Float.max !worst (Float.abs (Spline.eval spline t -. f t))
    done;
    !worst
  in
  let coarse = max_err (build 8) and fine = max_err (build 30) in
  Alcotest.(check bool)
    (Printf.sprintf "error shrinks (%.4g -> %.4g)" coarse fine)
    true
    (fine < coarse /. 4.)

(* --- SGD / DSGD --- *)

let spline_problem () =
  let s = sample_series () in
  let a, b = Spline.system s in
  (s, a, b, Sgd.of_tridiag a b)

let test_strata_independent () =
  let _, a, b, problem = spline_problem () in
  ignore a;
  ignore b;
  let strata = Sgd.tridiagonal_strata ~dim:problem.Sgd.dim in
  Alcotest.(check int) "3 strata" 3 (Array.length strata);
  Alcotest.(check bool) "independent" true (Sgd.strata_independent problem strata);
  (* Two adjacent rows in one stratum would clash. *)
  Alcotest.(check bool) "adjacent rows clash" false
    (Sgd.strata_independent problem [| [| 0; 1 |] |])

let test_dsgd_converges_to_thomas () =
  let _, a, b, problem = spline_problem () in
  let direct = Mde_linalg.Tridiag.solve a b in
  let rng = Rng.create ~seed:21 () in
  let result =
    Sgd.dsgd ~rng ~schedule:(Sgd.Row_normalized 1.0) ~sub_epochs:3000 ~tol:1e-10
      ~strata:(Sgd.tridiagonal_strata ~dim:problem.Sgd.dim)
      problem
  in
  Alcotest.(check bool)
    (Printf.sprintf "residual %.2g" result.Sgd.final_residual)
    true
    (result.Sgd.final_residual < 1e-8);
  Array.iteri
    (fun i x -> check_close 1e-5 (Printf.sprintf "x%d" i) direct.(i) x)
    result.Sgd.solution

let test_dsgd_early_stop () =
  let _, _, _, problem = spline_problem () in
  let rng = Rng.create ~seed:22 () in
  let result =
    Sgd.dsgd ~rng ~schedule:(Sgd.Row_normalized 1.0) ~sub_epochs:100_000 ~tol:1e-6
      ~strata:(Sgd.tridiagonal_strata ~dim:problem.Sgd.dim)
      problem
  in
  Alcotest.(check bool) "stopped early" true (result.Sgd.sub_epochs < 100_000)

let test_sgd_polynomial_schedule_descends () =
  let _, _, _, problem = spline_problem () in
  let rng = Rng.create ~seed:23 () in
  let x0 = Array.make problem.Sgd.dim 0. in
  let before = Sgd.residual_norm problem x0 in
  let x =
    Sgd.sgd ~rng
      ~schedule:(Sgd.Polynomial { scale = 0.2; alpha = 1.0 })
      ~iters:50_000 problem
  in
  (* The provably convergent n^-alpha schedule is slow; assert steady
     descent rather than full convergence (Row_normalized covers that). *)
  let after = Sgd.residual_norm problem x in
  Alcotest.(check bool)
    (Printf.sprintf "residual fell (%.3g -> %.3g)" before after)
    true (after < before *. 0.7)

let test_dsgd_spline_equals_direct_interpolation () =
  (* End-to-end: spline built from DSGD constants matches the direct one. *)
  let s = sample_series () in
  let a, b = Spline.system s in
  let problem = Sgd.of_tridiag a b in
  let rng = Rng.create ~seed:24 () in
  let result =
    Sgd.dsgd ~rng ~schedule:(Sgd.Row_normalized 1.0) ~sub_epochs:5000 ~tol:1e-12
      ~strata:(Sgd.tridiagonal_strata ~dim:problem.Sgd.dim)
      problem
  in
  let sigma = Array.make (Series.length s) 0. in
  Array.blit result.Sgd.solution 0 sigma 1 (Series.length s - 2);
  let via_dsgd = Spline.of_sigma s sigma in
  let direct = Spline.fit s in
  List.iter
    (fun t -> check_close 1e-5 "same interpolation" (Spline.eval direct t) (Spline.eval via_dsgd t))
    [ 0.3; 2.7; 6.1; 9.9 ]

(* --- Alignment --- *)

let test_classify () =
  let s = Series.of_pairs (List.init 20 (fun i -> (float_of_int i, 1.))) in
  let coarse = Series.regular_times ~start:0. ~step:5. ~count:4 in
  let fine = Series.regular_times ~start:0. ~step:0.25 ~count:77 in
  Alcotest.(check bool) "coarser → aggregation" true
    (Align.classify s ~target_times:coarse = Align.Needs_aggregation);
  Alcotest.(check bool) "finer → interpolation" true
    (Align.classify s ~target_times:fine = Align.Needs_interpolation);
  Alcotest.(check bool) "identical" true
    (Align.classify s ~target_times:(Series.times s) = Align.Identical)

let test_aggregate_mean_sum () =
  let s = Series.of_pairs [ (1., 2.); (2., 4.); (3., 6.); (4., 8.) ] in
  let target = [| 2.; 4. |] in
  let mean = Align.align (Align.Aggregate Align.Mean) s ~target_times:target in
  check_close 1e-9 "mean bucket 1" 3. (Series.values mean).(0);
  check_close 1e-9 "mean bucket 2" 7. (Series.values mean).(1);
  let sum = Align.align (Align.Aggregate Align.Sum) s ~target_times:target in
  check_close 1e-9 "sum bucket 2" 14. (Series.values sum).(1)

let test_aggregate_empty_bucket_carries () =
  let s = Series.of_pairs [ (0., 5.); (10., 7.) ] in
  let target = [| 1.; 2.; 10. |] in
  let out = Align.align (Align.Aggregate Align.Last) s ~target_times:target in
  check_close 1e-9 "bucket with data" 5. (Series.values out).(0);
  check_close 1e-9 "empty carries" 5. (Series.values out).(1);
  check_close 1e-9 "later data" 7. (Series.values out).(2)

let test_interpolate_linear_nearest_repeat () =
  let s = Series.of_pairs [ (0., 0.); (2., 4.) ] in
  let target = [| 0.5; 1.; 1.9 |] in
  let lin = Align.align (Align.Interpolate Align.Linear) s ~target_times:target in
  check_close 1e-9 "linear" 2. (Series.values lin).(1);
  let near = Align.align (Align.Interpolate Align.Nearest) s ~target_times:target in
  check_close 1e-9 "nearest low" 0. (Series.values near).(0);
  check_close 1e-9 "nearest high" 4. (Series.values near).(2);
  let rep = Align.align (Align.Interpolate Align.Repeat) s ~target_times:target in
  check_close 1e-9 "repeat" 0. (Series.values rep).(2)

let test_aggregate_min_max_first () =
  let s = Series.of_pairs [ (1., 5.); (2., 1.); (3., 9.); (4., 4.) ] in
  let target = [| 4. |] in
  let value kind =
    (Series.values (Align.align (Align.Aggregate kind) s ~target_times:target)).(0)
  in
  check_close 1e-9 "max" 9. (value Align.Max_agg);
  check_close 1e-9 "min" 1. (value Align.Min_agg);
  check_close 1e-9 "first" 5. (value Align.First)

let test_auto_alignment () =
  let s = sample_series () in
  let fine = Series.regular_times ~start:0. ~step:0.1 ~count:95 in
  let aligned, cls = Align.auto s ~target_times:fine in
  Alcotest.(check bool) "classified" true (cls = Align.Needs_interpolation);
  Alcotest.(check int) "length" 95 (Series.length aligned)

(* --- MapReduce alignment --- *)

let test_mr_align_matches_sequential () =
  let s = sample_series () in
  let target = Series.regular_times ~start:0.05 ~step:0.07 ~count:120 in
  List.iter
    (fun (kind, align_kind) ->
      let mr = Mr_align.interpolate ~partitions:5 ~kind s ~target_times:target in
      let seq = Align.align (Align.Interpolate align_kind) s ~target_times:target in
      Alcotest.(check int) "length" (Array.length target) (Series.length mr.Mr_align.target);
      Array.iteri
        (fun i v ->
          check_close 1e-9 (Printf.sprintf "point %d" i) (Series.values seq).(i) v)
        (Series.values mr.Mr_align.target))
    [ (`Linear, Align.Linear); (`Cubic, Align.Cubic) ]

let test_mr_align_stats () =
  let s = sample_series () in
  let target = Series.regular_times ~start:0. ~step:0.5 ~count:19 in
  let mr = Mr_align.interpolate ~partitions:4 ~kind:`Linear s ~target_times:target in
  Alcotest.(check bool) "windows mapped" true
    (mr.Mr_align.interpolation_stats.Mde_mapred.Job.records_mapped = 24)

(* --- Frames --- *)

module Frame = Mde_timeseries.Frame

let sample_frame () =
  Frame.create
    ~times:[| 0.; 1.; 2.; 3. |]
    ~columns:[ ("temp", [| 10.; 12.; 11.; 9. |]); ("wind", [| 1.; 2.; 3.; 4. |]) ]

let test_frame_basics () =
  let f = sample_frame () in
  Alcotest.(check int) "length" 4 (Frame.length f);
  Alcotest.(check (list string)) "columns" [ "temp"; "wind" ] (Frame.column_names f);
  check_close 1e-9 "cell" 11. (Frame.values f "temp").(2);
  Alcotest.(check (list (pair string (float 1e-9)))) "row"
    [ ("temp", 12.); ("wind", 2.) ] (Frame.row f 1)

let test_frame_validation () =
  Alcotest.(check bool) "duplicate columns rejected" true
    (try
       ignore
         (Frame.create ~times:[| 0.; 1. |]
            ~columns:[ ("a", [| 1.; 2. |]); ("a", [| 3.; 4. |]) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       ignore (Frame.create ~times:[| 0.; 1. |] ~columns:[ ("a", [| 1. |]) ]);
       false
     with Invalid_argument _ -> true)

let test_frame_column_ops () =
  let f = sample_frame () in
  let doubled = Frame.map_column f "wind" (fun v -> 2. *. v) in
  check_close 1e-9 "mapped" 8. (Frame.values doubled "wind").(3);
  check_close 1e-9 "original untouched" 4. (Frame.values f "wind").(3);
  let extended = Frame.add_column f "humid" [| 0.1; 0.2; 0.3; 0.4 |] in
  Alcotest.(check int) "3 columns" 3 (List.length (Frame.column_names extended));
  let dropped = Frame.drop_column extended "temp" in
  Alcotest.(check (list string)) "dropped" [ "wind"; "humid" ] (Frame.column_names dropped);
  Alcotest.(check bool) "cannot drop last" true
    (try
       ignore (Frame.drop_column (Frame.of_series ~name:"x" (Series.of_pairs [ (0., 1.); (1., 2.) ])) "x");
       false
     with Invalid_argument _ -> true)

let test_frame_align_columnwise () =
  let f = sample_frame () in
  let target = [| 0.5; 1.5; 2.5 |] in
  let aligned =
    Frame.align ~methods:[ ("wind", Align.Interpolate Align.Repeat) ] f
      ~target_times:target
  in
  Alcotest.(check int) "target length" 3 (Frame.length aligned);
  (* wind used Repeat (step function), temp used auto (cubic). *)
  check_close 1e-9 "wind repeats" 1. (Frame.values aligned "wind").(0);
  let temp_direct =
    Align.align (Align.Interpolate Align.Cubic)
      (Frame.column f "temp") ~target_times:target
  in
  Array.iteri
    (fun i v -> check_close 1e-9 "temp auto = cubic" (Series.values temp_direct).(i) v)
    (Frame.values aligned "temp")

let test_frame_table_roundtrip () =
  let f = sample_frame () in
  let table = Frame.to_table f in
  Alcotest.(check int) "rows" 4 (Table.cardinality table);
  Alcotest.(check int) "cols incl. time" 3 (Schema.arity (Table.schema table));
  let back = Frame.of_table ~time_column:"time" table in
  Alcotest.(check (list string)) "columns preserved" (Frame.column_names f)
    (Frame.column_names back);
  Array.iteri
    (fun i v -> check_close 1e-9 "values preserved" v (Frame.values back "temp").(i))
    (Frame.values f "temp")

(* --- Schema maps --- *)

let source_schema =
  Schema.of_list [ ("temp_f", Value.Tfloat); ("city", Value.Tstring) ]

let test_schema_map_apply () =
  let mapping =
    Schema_map.create ~source:source_schema
      [
        Schema_map.field "temp_c" Value.Tfloat
          Expr.((col "temp_f" - float 32.) * float (5. /. 9.));
        Schema_map.rename_field "location" ~ty:Value.Tstring ~from:"city";
      ]
  in
  let table =
    Table.create source_schema [ [| Value.Float 212.; Value.String "sj" |] ]
  in
  let out = Schema_map.apply mapping table in
  check_close 1e-9 "212F = 100C" 100. (Value.to_float (Table.get out 0 "temp_c"));
  Alcotest.(check string) "renamed" "sj" (Value.to_string_value (Table.get out 0 "location"))

let test_schema_map_compose_mismatch () =
  let m1 =
    Schema_map.create ~source:source_schema
      [ Schema_map.scale_field "x" ~from:"temp_f" ~factor:1. ]
  in
  Alcotest.(check bool) "compose rejects misaligned schemas" true
    (try
       ignore (Schema_map.compose m1 m1);
       false
     with Invalid_argument _ -> true)

let test_schema_map_validation () =
  Alcotest.(check bool) "unknown column rejected" true
    (try
       ignore
         (Schema_map.create ~source:source_schema
            [ Schema_map.field "x" Value.Tfloat (Expr.col "nope") ]);
       false
     with Invalid_argument _ -> true)

let test_schema_map_compose () =
  let m1 =
    Schema_map.create ~source:source_schema
      [
        Schema_map.scale_field "temp_half" ~from:"temp_f" ~factor:0.5;
        Schema_map.rename_field "location" ~ty:Value.Tstring ~from:"city";
      ]
  in
  let m2 =
    Schema_map.create ~source:(Schema_map.target_schema m1)
      [ Schema_map.scale_field "temp_quarter" ~from:"temp_half" ~factor:0.5 ]
  in
  let composed = Schema_map.compose m1 m2 in
  let table = Table.create source_schema [ [| Value.Float 100.; Value.String "x" |] ] in
  let direct = Schema_map.apply m2 (Schema_map.apply m1 table) in
  let fused = Schema_map.apply composed table in
  check_close 1e-9 "compose = sequential"
    (Value.to_float (Table.get direct 0 "temp_quarter"))
    (Value.to_float (Table.get fused 0 "temp_quarter"))

(* --- Forecast (Figure 1 machinery) --- *)

let test_forecast_linear_recovers_slope () =
  let times = Array.init 50 float_of_int in
  let s = Series.create ~times ~values:(Array.map (fun t -> 3. +. (2. *. t)) times) in
  let fit = Forecast.fit Forecast.Linear_trend s in
  let coef = Forecast.coefficients fit in
  check_close 1e-6 "intercept" 3. coef.(0);
  check_close 1e-8 "slope" 2. coef.(1);
  let future = Forecast.extrapolate fit ~horizon:5 in
  check_close 1e-6 "first forecast" (3. +. (2. *. 50.)) (Series.values future).(0)

let test_forecast_ar_on_ar_process () =
  let rng = Rng.create ~seed:31 () in
  let n = 2000 in
  let values = Array.make n 0. in
  for i = 1 to n - 1 do
    values.(i) <-
      (0.8 *. values.(i - 1))
      +. Mde_prob.Dist.sample (Mde_prob.Dist.Normal { mean = 0.; std = 0.1 }) rng
  done;
  let s = Series.create ~times:(Array.init n float_of_int) ~values in
  let fit = Forecast.fit (Forecast.Ar 1) s in
  let coef = Forecast.coefficients fit in
  check_close 0.05 "AR coefficient" 0.8 coef.(1)

let test_forecast_extrapolation_error () =
  let times = Array.init 30 float_of_int in
  let full =
    Series.create ~times
      ~values:(Array.map (fun t -> if t < 20. then t else 20. -. (2. *. (t -. 20.))) times)
  in
  let fit = Forecast.fit Forecast.Linear_trend (Series.sub_before full 19.) in
  let err = Forecast.extrapolation_error fit ~actual:full in
  (* Trend continues up while actual collapses: large error. *)
  Alcotest.(check bool) "regime change error" true (err > 10.)

let test_housing_series_shape () =
  let s = Synthetic.housing_index () in
  let values = Series.values s and times = Series.times s in
  let at_year y =
    let best = ref 0 in
    Array.iteri (fun i t -> if Float.abs (t -. y) < Float.abs (times.(!best) -. y) then best := i) times;
    values.(!best)
  in
  Alcotest.(check bool) "boom into 2006" true (at_year 2006. > 1.5 *. at_year 1995.);
  Alcotest.(check bool) "collapse after 2006" true (at_year 2011. < 0.8 *. at_year 2006.)

(* --- QCheck --- *)

let prop_spline_interpolates =
  QCheck.Test.make ~name:"spline passes through all knots" ~count:50
    QCheck.(int_range 3 30)
    (fun n ->
      let s = Synthetic.smooth_signal ~seed:n ~knots:n ~span:5. () in
      let spline = Spline.fit s in
      Array.for_all2
        (fun t v -> Float.abs (Spline.eval spline t -. v) < 1e-6)
        (Series.times s) (Series.values s))

let prop_mr_align_linear =
  QCheck.Test.make ~name:"MapReduce linear interpolation = sequential" ~count:30
    QCheck.(pair (int_range 3 20) (int_range 2 50))
    (fun (knots, targets) ->
      let s = Synthetic.smooth_signal ~seed:(knots + targets) ~knots ~span:4. () in
      let target = Series.regular_times ~start:0.1 ~step:(3.8 /. float_of_int targets) ~count:targets in
      let mr = Mr_align.interpolate ~partitions:3 ~kind:`Linear s ~target_times:target in
      let seq = Align.align (Align.Interpolate Align.Linear) s ~target_times:target in
      Array.for_all2
        (fun a b -> Float.abs (a -. b) < 1e-9)
        (Series.values mr.Mr_align.target)
        (Series.values seq))

let prop_aggregate_sum_preserved =
  QCheck.Test.make ~name:"Sum aggregation preserves the covered total" ~count:100
    QCheck.(list_of_size Gen.(int_range 2 30) (float_range (-10.) 10.))
    (fun values ->
      let n = List.length values in
      let times = Array.init n (fun i -> float_of_int i) in
      let s = Series.create ~times ~values:(Array.of_list values) in
      (* A single target tick at/after the last source time covers all
         observations, so the Sum bucket equals the total. *)
      let target = [| float_of_int n |] in
      let out = Align.align (Align.Aggregate Align.Sum) s ~target_times:target in
      let total = List.fold_left ( +. ) 0. values in
      Float.abs ((Series.values out).(0) -. total) < 1e-9)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mde_timeseries"
    [
      ( "series",
        [
          Alcotest.test_case "validation" `Quick test_series_validation;
          Alcotest.test_case "locate" `Quick test_series_locate;
          Alcotest.test_case "sub_before" `Quick test_series_sub_before;
          Alcotest.test_case "invalid inputs raise" `Quick test_invalid_inputs_raise;
        ] );
      ( "spline",
        [
          Alcotest.test_case "interpolates knots" `Quick test_spline_interpolates_knots;
          Alcotest.test_case "linear stays linear" `Quick test_spline_linear_data_stays_linear;
          Alcotest.test_case "two points" `Quick test_spline_two_points;
          Alcotest.test_case "converges with knots" `Quick test_spline_smoothness;
        ] );
      ( "sgd",
        [
          Alcotest.test_case "strata independence" `Quick test_strata_independent;
          Alcotest.test_case "dsgd → thomas" `Quick test_dsgd_converges_to_thomas;
          Alcotest.test_case "dsgd early stop" `Quick test_dsgd_early_stop;
          Alcotest.test_case "polynomial schedule descends" `Slow test_sgd_polynomial_schedule_descends;
          Alcotest.test_case "dsgd spline end-to-end" `Quick test_dsgd_spline_equals_direct_interpolation;
        ] );
      ( "align",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "aggregate mean/sum" `Quick test_aggregate_mean_sum;
          Alcotest.test_case "empty bucket carries" `Quick test_aggregate_empty_bucket_carries;
          Alcotest.test_case "interpolation kinds" `Quick test_interpolate_linear_nearest_repeat;
          Alcotest.test_case "min/max/first aggregation" `Quick test_aggregate_min_max_first;
          Alcotest.test_case "auto" `Quick test_auto_alignment;
        ] );
      ( "mr_align",
        [
          Alcotest.test_case "matches sequential" `Quick test_mr_align_matches_sequential;
          Alcotest.test_case "stats" `Quick test_mr_align_stats;
        ] );
      ( "frame",
        [
          Alcotest.test_case "basics" `Quick test_frame_basics;
          Alcotest.test_case "validation" `Quick test_frame_validation;
          Alcotest.test_case "column ops" `Quick test_frame_column_ops;
          Alcotest.test_case "column-wise align" `Quick test_frame_align_columnwise;
          Alcotest.test_case "table roundtrip" `Quick test_frame_table_roundtrip;
        ] );
      ( "schema_map",
        [
          Alcotest.test_case "apply" `Quick test_schema_map_apply;
          Alcotest.test_case "validation" `Quick test_schema_map_validation;
          Alcotest.test_case "compose" `Quick test_schema_map_compose;
          Alcotest.test_case "compose mismatch" `Quick test_schema_map_compose_mismatch;
        ] );
      ( "forecast",
        [
          Alcotest.test_case "linear recovers" `Quick test_forecast_linear_recovers_slope;
          Alcotest.test_case "AR(1) recovers" `Quick test_forecast_ar_on_ar_process;
          Alcotest.test_case "regime-change error" `Quick test_forecast_extrapolation_error;
          Alcotest.test_case "housing shape" `Quick test_housing_series_shape;
        ] );
      ( "properties",
        qc [ prop_spline_interpolates; prop_mr_align_linear; prop_aggregate_sum_preserved ] );
    ]
