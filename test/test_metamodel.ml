module Design = Mde_metamodel.Design
module Polynomial = Mde_metamodel.Polynomial
module Kriging = Mde_metamodel.Kriging
module Screening = Mde_metamodel.Screening
module Rng = Mde_prob.Rng
module Dist = Mde_prob.Dist

let check_close eps = Alcotest.(check (float eps))

(* --- Designs --- *)

let test_full_factorial () =
  let d = Design.full_factorial 3 in
  Alcotest.(check int) "8 runs" 8 (Design.runs d);
  Alcotest.(check int) "3 factors" 3 (Design.factors d);
  (* All rows distinct. *)
  let as_list = Array.to_list (Array.map Array.to_list d) in
  Alcotest.(check int) "distinct" 8 (List.length (List.sort_uniq compare as_list))

(* The exact Figure 3 table. *)
let figure3 =
  [|
    [| -1.; -1.; -1.; 1.; 1.; 1.; -1. |];
    [| 1.; -1.; -1.; -1.; -1.; 1.; 1. |];
    [| -1.; 1.; -1.; -1.; 1.; -1.; 1. |];
    [| 1.; 1.; -1.; 1.; -1.; -1.; -1. |];
    [| -1.; -1.; 1.; 1.; -1.; -1.; 1. |];
    [| 1.; -1.; 1.; -1.; 1.; -1.; -1. |];
    [| -1.; 1.; 1.; -1.; -1.; 1.; -1. |];
    [| 1.; 1.; 1.; 1.; 1.; 1.; 1. |];
  |]

let test_resolution_iii_matches_figure3 () =
  let d = Design.resolution_iii_7 () in
  Alcotest.(check int) "8 runs" 8 (Design.runs d);
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          check_close 1e-12 (Printf.sprintf "run %d x%d" (i + 1) (j + 1)) figure3.(i).(j) v)
        row)
    d

let test_resolution_iii_orthogonal () =
  Alcotest.(check bool) "orthogonal columns" true
    (Design.column_orthogonal (Design.resolution_iii_7 ()))

let test_fold_over () =
  let d = Design.resolution_iii_7 () in
  let folded = Design.fold_over d in
  Alcotest.(check int) "16 runs" 16 (Design.runs folded);
  (* Second half is the mirror of the first. *)
  for i = 0 to 7 do
    for j = 0 to 6 do
      check_close 1e-12 "mirrored" (-.d.(i).(j)) folded.(i + 8).(j)
    done
  done;
  Alcotest.(check bool) "still orthogonal" true (Design.column_orthogonal folded)

let test_resolution_v () =
  let d = Design.resolution_v_5 () in
  Alcotest.(check int) "16 runs" 16 (Design.runs d);
  Alcotest.(check int) "5 factors" 5 (Design.factors d);
  Alcotest.(check bool) "orthogonal" true (Design.column_orthogonal d);
  (* Resolution V: two-factor interaction columns are orthogonal to main
     effects — check x1x2 against every main column. *)
  let inter = Array.map (fun row -> row.(0) *. row.(1)) d in
  for j = 0 to 4 do
    let dot = ref 0. in
    Array.iteri (fun i row -> dot := !dot +. (inter.(i) *. row.(j))) d;
    check_close 1e-12 (Printf.sprintf "x1x2 ⊥ x%d" (j + 1)) 0. !dot
  done

let test_central_composite () =
  let d = Design.central_composite 2 in
  Alcotest.(check int) "4+4+1 runs" 9 (Design.runs d);
  (* Rotatable alpha = (2^2)^(1/4) = sqrt 2. *)
  let has_point p = Array.exists (fun row -> row = p) d in
  Alcotest.(check bool) "centre" true (has_point [| 0.; 0. |]);
  Alcotest.(check bool) "axial" true (has_point [| sqrt 2.; 0. |]);
  Alcotest.(check bool) "corner" true (has_point [| -1.; 1. |]);
  (* A CCD supports an exact full-quadratic fit. *)
  let response =
    Array.map
      (fun x ->
        1. +. (2. *. x.(0)) -. x.(1) +. (0.5 *. x.(0) *. x.(0))
        +. (0.25 *. x.(1) *. x.(1)) +. (3. *. x.(0) *. x.(1)))
      d
  in
  let terms = [ []; [ 0 ]; [ 1 ]; [ 0; 0 ]; [ 1; 1 ]; [ 0; 1 ] ] in
  let fit = Polynomial.fit ~terms ~design:d ~response in
  check_close 1e-9 "x0^2 coefficient" 0.5 (Polynomial.coefficient fit [ 0; 0 ]);
  check_close 1e-9 "x1^2 coefficient" 0.25 (Polynomial.coefficient fit [ 1; 1 ]);
  check_close 1e-9 "interaction" 3. (Polynomial.coefficient fit [ 0; 1 ]);
  check_close 1e-9 "r2" 1. (Polynomial.r_squared fit)

let test_latin_hypercube () =
  let rng = Rng.create ~seed:1 () in
  let d = Design.latin_hypercube ~rng ~factors:2 ~levels:9 in
  Alcotest.(check int) "9 runs" 9 (Design.runs d);
  Alcotest.(check bool) "latin property" true (Design.is_latin d);
  (* Levels are the centered -4..4 of Figure 5. *)
  let col = Array.map (fun row -> row.(0)) d in
  Array.sort Float.compare col;
  check_close 1e-12 "lowest level" (-4.) col.(0);
  check_close 1e-12 "highest level" 4. col.(8)

let test_nolh_improves_orthogonality () =
  let rng1 = Rng.create ~seed:2 () and rng2 = Rng.create ~seed:2 () in
  let single = Design.latin_hypercube ~rng:rng1 ~factors:4 ~levels:17 in
  let searched = Design.nearly_orthogonal_lh ~rng:rng2 ~factors:4 ~levels:17 ~tries:200 in
  Alcotest.(check bool) "still latin" true (Design.is_latin searched);
  Alcotest.(check bool)
    (Printf.sprintf "correlation %.3f <= %.3f"
       (Design.max_abs_correlation searched)
       (Design.max_abs_correlation single))
    true
    (Design.max_abs_correlation searched <= Design.max_abs_correlation single)

let test_scale () =
  let d = Design.full_factorial 2 in
  let scaled = Design.scale d ~ranges:[| (0., 10.); (100., 200.) |] in
  let col0 = Array.map (fun r -> r.(0)) scaled in
  Alcotest.(check bool) "endpoints hit" true
    (Array.exists (fun v -> v = 0.) col0 && Array.exists (fun v -> v = 10.) col0);
  Array.iter
    (fun row ->
      Alcotest.(check bool) "in range" true (row.(1) >= 100. && row.(1) <= 200.))
    scaled

(* --- Polynomial metamodels --- *)

let test_terms_up_to () =
  let terms = Polynomial.terms_up_to ~factors:3 ~order:2 in
  (* 1 intercept + 3 mains + 3 pairs. *)
  Alcotest.(check int) "term count" 7 (List.length terms);
  Alcotest.(check bool) "has interaction" true (List.mem [ 0; 2 ] terms)

let test_polynomial_recovers_coefficients () =
  (* Response 2 + 3x1 − x2 + 0.5x1x2 on a full factorial: exact fit. *)
  let design = Design.full_factorial 2 in
  let response =
    Array.map (fun row -> 2. +. (3. *. row.(0)) -. row.(1) +. (0.5 *. row.(0) *. row.(1))) design
  in
  let terms = Polynomial.terms_up_to ~factors:2 ~order:2 in
  let fit = Polynomial.fit ~terms ~design ~response in
  check_close 1e-9 "intercept" 2. (Polynomial.coefficient fit []);
  check_close 1e-9 "x1" 3. (Polynomial.coefficient fit [ 0 ]);
  check_close 1e-9 "x2" (-1.) (Polynomial.coefficient fit [ 1 ]);
  check_close 1e-9 "x1x2" 0.5 (Polynomial.coefficient fit [ 0; 1 ]);
  check_close 1e-9 "r2" 1. (Polynomial.r_squared fit);
  check_close 1e-9 "predict" (2. +. 1.5 -. 0.25 +. (0.5 *. 0.5 *. 0.25))
    (Polynomial.predict fit [| 0.5; 0.25 |])

let linear_7_factor_response ?(noise = 0.) ?(seed = 3) design =
  (* betas: x1..x7 = 4, 0, 2, 0, 0, 1, 0. *)
  let betas = [| 4.; 0.; 2.; 0.; 0.; 1.; 0. |] in
  let rng = Rng.create ~seed () in
  Array.map
    (fun row ->
      let acc = ref 10. in
      Array.iteri (fun j b -> acc := !acc +. (b *. row.(j))) betas;
      !acc +. (if noise > 0. then Dist.sample (Dist.Normal { mean = 0.; std = noise }) rng else 0.))
    design

let test_main_effects_on_resolution_iii () =
  (* The Figure 3/4 workflow: 8 runs estimate all 7 main effects. *)
  let design = Design.resolution_iii_7 () in
  let response = linear_7_factor_response design in
  let effects = Polynomial.main_effects ~design ~response in
  let expected = [| 8.; 0.; 4.; 0.; 0.; 2.; 0. |] in
  Array.iteri
    (fun j e ->
      check_close 1e-9 (Printf.sprintf "effect x%d" (j + 1)) expected.(j)
        e.Polynomial.effect)
    effects

let test_main_effects_plot_renders () =
  let design = Design.resolution_iii_7 () in
  let response = linear_7_factor_response design in
  let effects = Polynomial.main_effects ~design ~response in
  let plot = Polynomial.main_effects_plot effects in
  Alcotest.(check bool) "non-empty" true (String.length plot > 100);
  Alcotest.(check bool) "has points" true (String.contains plot 'o')

let test_half_normal_and_significance () =
  let design = Design.fold_over (Design.resolution_iii_7 ()) in
  let response = linear_7_factor_response ~noise:0.05 design in
  let terms = Polynomial.terms_up_to ~factors:7 ~order:1 in
  let fit = Polynomial.fit ~terms ~design ~response in
  let points = Polynomial.half_normal fit in
  Alcotest.(check int) "7 effects" 7 (List.length points);
  (* Sorted ascending. *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Polynomial.abs_effect <= b.Polynomial.abs_effect && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending" true (sorted points);
  let significant = Polynomial.significant_terms fit in
  Alcotest.(check bool) "x1 found" true (List.mem [ 0 ] significant);
  Alcotest.(check bool) "x3 found" true (List.mem [ 2 ] significant);
  Alcotest.(check bool) "x2 not flagged" false (List.mem [ 1 ] significant)

(* --- Kriging --- *)

let test_covariance_function () =
  let theta = [| 1.; 2. |] in
  check_close 1e-12 "at zero distance" 3. (Kriging.covariance ~theta ~tau2:3. [| 1.; 1. |] [| 1.; 1. |]);
  let v = Kriging.covariance ~theta ~tau2:3. [| 0.; 0. |] [| 1.; 1. |] in
  check_close 1e-9 "product form" (3. *. exp (-3.)) v

let branin_like x = sin (3. *. x.(0)) +. (0.5 *. x.(0) *. x.(0))

let kriging_1d_fixture () =
  let design = Array.init 12 (fun i -> [| float_of_int i /. 11. *. 3. |]) in
  let response = Array.map branin_like design in
  (design, response)

let test_kriging_interpolates () =
  let design, response = kriging_1d_fixture () in
  let model = Kriging.fit ~theta:[| 4. |] ~tau2:1. ~design ~response () in
  Array.iteri
    (fun i x ->
      check_close 1e-5 (Printf.sprintf "design point %d" i) response.(i)
        (Kriging.predict model x))
    design

let test_kriging_predicts_between_points () =
  let design, response = kriging_1d_fixture () in
  let model = Kriging.fit_mle ~design ~response () in
  let worst = ref 0. in
  for i = 0 to 60 do
    let x = [| float_of_int i /. 60. *. 3. |] in
    worst := Float.max !worst (Float.abs (Kriging.predict model x -. branin_like x))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "max error %.4f small" !worst)
    true (!worst < 0.05)

let test_kriging_variance_zero_at_design_points () =
  let design, response = kriging_1d_fixture () in
  let model = Kriging.fit ~theta:[| 25. |] ~tau2:1. ~design ~response () in
  Alcotest.(check bool) "tiny at design point" true
    (Kriging.predict_variance model design.(3) < 1e-6);
  (* Midway between the first two design points the posterior is
     genuinely uncertain. *)
  Alcotest.(check bool) "positive away" true
    (Kriging.predict_variance model [| 0.136 |] > 1e-3)

let test_stochastic_kriging_smooths () =
  (* Noisy observations of a constant: SK must not chase the noise. *)
  let rng = Rng.create ~seed:5 () in
  let design = Array.init 10 (fun i -> [| float_of_int i |]) in
  let noise = Array.map (fun _ -> Dist.sample (Dist.Normal { mean = 0.; std = 1. }) rng) design in
  let means = Array.map (fun n -> 5. +. n) noise in
  let deterministic = Kriging.fit ~theta:[| 1. |] ~tau2:1. ~design ~response:means () in
  let stochastic =
    Kriging.fit_stochastic ~theta:[| 1. |] ~tau2:1. ~design ~means
      ~noise_variances:(Array.make 10 1.) ()
  in
  (* SK prediction at a noisy design point is pulled toward the global
     mean; deterministic kriging reproduces the noise exactly. *)
  let det_err = Float.abs (Kriging.predict deterministic design.(0) -. means.(0)) in
  let sk_pull = Float.abs (Kriging.predict stochastic design.(0) -. means.(0)) in
  Alcotest.(check bool) "interpolator sticks to data" true (det_err < 1e-6);
  Alcotest.(check bool) "SK shrinks toward mean" true (sk_pull > 0.05)

let test_gp_log_likelihood_prefers_right_scale () =
  (* Data from a slowly varying function: a wildly rough theta should be
     less likely than a moderate one. *)
  let design, response = kriging_1d_fixture () in
  let ll_good = Kriging.log_likelihood ~theta:[| 2. |] ~design ~response in
  let ll_bad = Kriging.log_likelihood ~theta:[| 900. |] ~design ~response in
  Alcotest.(check bool) "moderate scale preferred" true (ll_good > ll_bad)

(* --- Screening --- *)

let planted_simulator ?(noise = 0.) ?(seed = 7) () =
  (* 16 factors, important ones {2, 9, 13} with positive effects. *)
  let rng = Rng.create ~seed () in
  fun x ->
    (3. *. x.(2)) +. (1.5 *. x.(9)) +. (2.2 *. x.(13)) +. 20.
    +. (if noise > 0. then Dist.sample (Dist.Normal { mean = 0.; std = noise }) rng else 0.)

let test_sequential_bifurcation_finds_planted () =
  let simulate = planted_simulator () in
  let result = Screening.sequential_bifurcation ~threshold:0.1 ~factors:16 ~simulate () in
  Alcotest.(check (list int)) "found exactly the planted factors" [ 2; 9; 13 ]
    result.Screening.important;
  Alcotest.(check bool)
    (Printf.sprintf "runs %d << 2^16" result.Screening.runs_used)
    true
    (result.Screening.runs_used < 40)

let test_sequential_bifurcation_null_model () =
  let result =
    Screening.sequential_bifurcation ~threshold:0.1 ~factors:8
      ~simulate:(fun _ -> 5.) ()
  in
  Alcotest.(check (list int)) "nothing important" [] result.Screening.important;
  Alcotest.(check int) "two runs suffice" 2 result.Screening.runs_used

let test_sequential_bifurcation_noisy () =
  (* Gaussian observation noise: the replicated, z-guarded variant must
     still find exactly the planted factors. *)
  let simulate = planted_simulator ~noise:0.4 ~seed:11 () in
  let result =
    Screening.sequential_bifurcation ~threshold:0.2 ~replications:8
      ~confidence_z:2.5 ~factors:16 ~simulate ()
  in
  Alcotest.(check (list int)) "planted factors under noise" [ 2; 9; 13 ]
    result.Screening.important;
  Alcotest.(check bool)
    (Printf.sprintf "runs %d still far below factorial" result.Screening.runs_used)
    true
    (result.Screening.runs_used < 8 * 40)

let test_sequential_bifurcation_noisy_null () =
  (* Pure noise with the guard: no false positives. *)
  let rng = Rng.create ~seed:13 () in
  let simulate _ = Dist.sample (Dist.Normal { mean = 5.; std = 0.5 }) rng in
  let result =
    Screening.sequential_bifurcation ~threshold:0.1 ~replications:10
      ~confidence_z:3. ~factors:12 ~simulate ()
  in
  Alcotest.(check (list int)) "no false positives" [] result.Screening.important

module Morris = Mde_metamodel.Morris

let test_morris_screening () =
  (* y = 4 x1 + x3^2 (nonlinear) + noise-free; x2 inert. *)
  let simulate x = (4. *. x.(0)) +. (x.(2) *. x.(2)) in
  let rng = Rng.create ~seed:15 () in
  let result = Morris.screen ~trajectories:20 ~rng ~factors:3 ~simulate () in
  Alcotest.(check int) "runs = r(k+1)" (20 * 4) result.Morris.runs_used;
  (match result.Morris.ranked with
  | first :: _ -> Alcotest.(check int) "x1 most important" 0 first
  | [] -> Alcotest.fail "empty");
  let s = result.Morris.stats in
  Alcotest.(check bool) "inert factor near zero" true (s.(1).Morris.mu_star < 0.05);
  check_close 1e-6 "linear factor exact" 4. s.(0).Morris.mu_star;
  (* The nonlinear factor has sigma > 0 (effects vary with position); the
     linear one has sigma = 0. *)
  Alcotest.(check bool) "nonlinearity detected" true
    (s.(2).Morris.sigma > 0.05 && s.(0).Morris.sigma < 1e-9)

let test_gp_screening_ranks_active_factor () =
  (* 3 factors; only factor 1 matters. *)
  let rng = Rng.create ~seed:9 () in
  let design =
    Array.init 25 (fun _ -> Array.init 3 (fun _ -> Rng.float_range rng 0. 1.))
  in
  let response = Array.map (fun x -> sin (6. *. x.(1))) design in
  let screen = Screening.gp_screening ~design ~response in
  match screen.Screening.ranked with
  | (top, _) :: _ -> Alcotest.(check int) "factor 1 ranked first" 1 top
  | [] -> Alcotest.fail "empty ranking"

(* --- QCheck --- *)

let prop_lh_always_latin =
  QCheck.Test.make ~name:"randomized LH always has the Latin property" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 2 20))
    (fun (factors, levels) ->
      let rng = Rng.create ~seed:(factors + (31 * levels)) () in
      Design.is_latin (Design.latin_hypercube ~rng ~factors ~levels))

let prop_fractional_orthogonal =
  QCheck.Test.make ~name:"fractional factorials have orthogonal columns" ~count:30
    QCheck.(int_range 2 5)
    (fun base ->
      let generators = [ List.init base Fun.id ] in
      Design.column_orthogonal (Design.fractional_factorial ~base ~generators))

(* Every public precondition raises [Invalid_argument] from a real check,
   so this passes under [--profile noassert] too. *)
let test_preconditions_raise () =
  let rng () = Rng.create ~seed:1 () in
  let design = Design.full_factorial 2 in
  let simulate x = x.(0) in
  let raises msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  raises "Design.full_factorial: k must be in 1..20" (fun () -> Design.full_factorial 21);
  raises "Design.fractional_factorial: a generator index is outside 0..base-1" (fun () ->
      Design.fractional_factorial ~base:3 ~generators:[ [ 0; 3 ] ]);
  raises "Design.central_composite: k must be in 1..12" (fun () -> Design.central_composite 0);
  raises "Design.central_composite: axial must be positive" (fun () ->
      Design.central_composite ~axial:0. 2);
  raises "Design.latin_hypercube: needs factors >= 1 and levels >= 2" (fun () ->
      Design.latin_hypercube ~rng:(rng ()) ~factors:2 ~levels:1);
  raises "Design.nearly_orthogonal_lh: tries must be >= 1" (fun () ->
      Design.nearly_orthogonal_lh ~rng:(rng ()) ~factors:2 ~levels:5 ~tries:0);
  raises "Design.scale: needs one range per factor" (fun () ->
      Design.scale design ~ranges:[| (0., 1.) |]);
  raises "Kriging.covariance: points and theta differ in length" (fun () ->
      Kriging.covariance ~theta:[| 1. |] ~tau2:1. [| 0.; 1. |] [| 1.; 0. |]);
  raises "Kriging.fit: needs >= 2 design points and one response per point" (fun () ->
      Kriging.fit ~theta:[| 1.; 1. |] ~tau2:1. ~design ~response:[| 1. |] ());
  raises "Kriging.fit_stochastic: needs one noise variance per design point" (fun () ->
      Kriging.fit_stochastic ~theta:[| 1.; 1. |] ~tau2:1. ~design ~means:[| 1.; 2.; 3.; 4. |]
        ~noise_variances:[| 0.1 |] ());
  raises "Kriging.fit_stochastic: needs >= 2 design points and one response per point"
    (fun () ->
      Kriging.fit_stochastic ~theta:[| 1.; 1. |] ~tau2:1. ~design ~means:[| 1. |]
        ~noise_variances:[| 0.1; 0.1; 0.1; 0.1 |] ());
  raises "Kriging.log_likelihood: needs >= 2 design points" (fun () ->
      Kriging.log_likelihood ~theta:[| 1. |] ~design:[| [| 0. |] |] ~response:[| 1. |]);
  raises "Morris.screen: needs factors >= 1, an even levels >= 2 and trajectories >= 1"
    (fun () -> Mde_metamodel.Morris.screen ~levels:3 ~rng:(rng ()) ~factors:2 ~simulate ());
  raises "Polynomial.terms_up_to: needs factors >= 1 and order >= 0" (fun () ->
      Polynomial.terms_up_to ~factors:2 ~order:(-1));
  raises "Polynomial.fit: needs one response per design run" (fun () ->
      Polynomial.fit ~terms:[ [] ] ~design ~response:[| 1. |]);
  raises "Screening.sequential_bifurcation: needs factors >= 1 and replications >= 1"
    (fun () -> Screening.sequential_bifurcation ~replications:0 ~factors:2 ~simulate ())

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mde_metamodel"
    [
      ( "design",
        [
          Alcotest.test_case "full factorial" `Quick test_full_factorial;
          Alcotest.test_case "Figure 3 exact" `Quick test_resolution_iii_matches_figure3;
          Alcotest.test_case "resolution III orthogonal" `Quick test_resolution_iii_orthogonal;
          Alcotest.test_case "fold-over" `Quick test_fold_over;
          Alcotest.test_case "central composite" `Quick test_central_composite;
          Alcotest.test_case "resolution V" `Quick test_resolution_v;
          Alcotest.test_case "latin hypercube" `Quick test_latin_hypercube;
          Alcotest.test_case "NOLH search" `Quick test_nolh_improves_orthogonality;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "preconditions raise" `Quick test_preconditions_raise;
        ] );
      ( "polynomial",
        [
          Alcotest.test_case "terms" `Quick test_terms_up_to;
          Alcotest.test_case "recovers coefficients" `Quick test_polynomial_recovers_coefficients;
          Alcotest.test_case "main effects (Fig 4)" `Quick test_main_effects_on_resolution_iii;
          Alcotest.test_case "main effects plot" `Quick test_main_effects_plot_renders;
          Alcotest.test_case "half-normal + significance" `Quick test_half_normal_and_significance;
        ] );
      ( "kriging",
        [
          Alcotest.test_case "covariance (5)" `Quick test_covariance_function;
          Alcotest.test_case "interpolates (6)" `Quick test_kriging_interpolates;
          Alcotest.test_case "predicts between points" `Quick test_kriging_predicts_between_points;
          Alcotest.test_case "variance at design points" `Quick test_kriging_variance_zero_at_design_points;
          Alcotest.test_case "stochastic kriging smooths" `Quick test_stochastic_kriging_smooths;
          Alcotest.test_case "likelihood scale" `Quick test_gp_log_likelihood_prefers_right_scale;
        ] );
      ( "screening",
        [
          Alcotest.test_case "sequential bifurcation" `Quick test_sequential_bifurcation_finds_planted;
          Alcotest.test_case "null model" `Quick test_sequential_bifurcation_null_model;
          Alcotest.test_case "noisy responses" `Quick test_sequential_bifurcation_noisy;
          Alcotest.test_case "noisy null model" `Quick test_sequential_bifurcation_noisy_null;
          Alcotest.test_case "GP theta screening" `Quick test_gp_screening_ranks_active_factor;
          Alcotest.test_case "Morris elementary effects" `Quick test_morris_screening;
        ] );
      ("properties", qc [ prop_lh_always_latin; prop_fractional_orthogonal ]);
    ]
