module Mle = Mde_calibrate.Mle
module Moments = Mde_calibrate.Moments
module Msm = Mde_calibrate.Msm
module Market = Mde_calibrate.Market
module Rng = Mde_prob.Rng
module Dist = Mde_prob.Dist

let check_close eps = Alcotest.(check (float eps))

(* --- MLE --- *)

let test_exponential_mle () =
  let rng = Rng.create ~seed:1 () in
  let xs = Dist.sample_n (Dist.Exponential { rate = 2.5 }) rng 50_000 in
  check_close 0.05 "rate" 2.5 (Mle.exponential xs);
  (* Closed form: 1 / mean. *)
  check_close 1e-12 "is 1/mean" (1. /. Mde_prob.Stats.mean xs) (Mle.exponential xs)

let test_normal_mle () =
  let rng = Rng.create ~seed:2 () in
  let xs = Dist.sample_n (Dist.Normal { mean = -3.; std = 1.5 }) rng 50_000 in
  let mu, sigma = Mle.normal xs in
  check_close 0.05 "mu" (-3.) mu;
  check_close 0.05 "sigma" 1.5 sigma

let test_poisson_mle () =
  let rng = Rng.create ~seed:3 () in
  let ks = Dist.sample_discrete_n (Dist.Poisson 7.) rng 50_000 in
  check_close 0.1 "rate" 7. (Mle.poisson ks)

let test_numeric_mle_matches_closed_form () =
  let rng = Rng.create ~seed:4 () in
  let xs = Dist.sample_n (Dist.Exponential { rate = 1.7 }) rng 5000 in
  let result =
    Mle.numeric
      ~log_density:(fun ~theta x -> Dist.log_pdf (Dist.Exponential { rate = theta.(0) }) x)
      ~bounds:[| (0.01, 20.) |]
      ~x0:[| 1. |] xs
  in
  check_close 0.01 "numeric = closed form" (Mle.exponential xs) result.Mle.theta.(0)

let test_numeric_mle_two_params () =
  let rng = Rng.create ~seed:5 () in
  let xs = Dist.sample_n (Dist.Normal { mean = 4.; std = 2. }) rng 5000 in
  let result =
    Mle.numeric
      ~log_density:(fun ~theta x ->
        Dist.log_pdf (Dist.Normal { mean = theta.(0); std = theta.(1) }) x)
      ~bounds:[| (-10., 10.); (0.1, 10.) |]
      ~x0:[| 0.; 1. |] xs
  in
  check_close 0.1 "mu" 4. result.Mle.theta.(0);
  check_close 0.1 "sigma" 2. result.Mle.theta.(1)

(* --- Method of moments --- *)

let test_mm_exponential_equals_mle () =
  let rng = Rng.create ~seed:6 () in
  let xs = Dist.sample_n (Dist.Exponential { rate = 0.8 }) rng 10_000 in
  (* The paper's observation: MM and MLE coincide for the exponential. *)
  check_close 1e-12 "coincide" (Mle.exponential xs) (Moments.exponential xs)

let test_mm_generic_solve () =
  (* Gamma(k, s): E[X] = ks, E[X²] = ks²(k+1). Solve from observed raw
     moments. *)
  let rng = Rng.create ~seed:7 () in
  let xs = Dist.sample_n (Dist.Gamma { shape = 3.; scale = 2. }) rng 100_000 in
  let observed = Moments.sample_moments ~orders:[ 1; 2 ] xs in
  let result =
    Moments.solve
      ~population_moments:(fun theta ->
        let k = theta.(0) and s = theta.(1) in
        [| k *. s; k *. s *. s *. (k +. 1.) |])
      ~observed_moments:observed
      ~bounds:[| (0.1, 20.); (0.1, 20.) |]
      ~x0:[| 1.; 1. |]
  in
  check_close 0.3 "shape" 3. result.Moments.theta.(0);
  check_close 0.2 "scale" 2. result.Moments.theta.(1)

(* --- MSM --- *)

(* A transparent "simulation": moments of N(theta0, theta1). MSM must
   recover both parameters from observed data. *)
let normal_msm_problem ?(replications = 20) () =
  let truth = [| 3.; 1.5 |] in
  let data_rng = Rng.create ~seed:8 () in
  let moment_sample rng theta =
    let d = Dist.Normal { mean = theta.(0); std = theta.(1) } in
    let xs = Dist.sample_n d rng 200 in
    [| Mde_prob.Stats.mean xs; Mde_prob.Stats.std xs |]
  in
  let observed = Array.init 50 (fun _ -> moment_sample data_rng truth) in
  {
    Msm.simulate_moments = moment_sample;
    observed;
    bounds = [| (0., 6.); (0.2, 4.) |];
    replications;
    regularization = None;
  }

let test_msm_weight_matrix_spd () =
  let problem = normal_msm_problem () in
  let w = Msm.weight_matrix problem in
  (* SPD check via Cholesky. *)
  Alcotest.(check bool) "cholesky succeeds" true
    (match Mde_linalg.Mat.cholesky w with
    | _ -> true
    | exception Failure _ -> false)

let test_msm_objective_small_at_truth () =
  let problem = normal_msm_problem ~replications:50 () in
  let w = Msm.weight_matrix problem in
  let rng = Rng.create ~seed:9 () in
  let j_truth = Msm.objective problem rng w [| 3.; 1.5 |] in
  let j_far = Msm.objective problem rng w [| 5.; 0.5 |] in
  Alcotest.(check bool)
    (Printf.sprintf "J(truth)=%.2f << J(far)=%.2f" j_truth j_far)
    true
    (j_truth < j_far /. 10.)

let check_recovery name result =
  Alcotest.(check bool)
    (Printf.sprintf "%s recovered mean %.2f" name result.Msm.theta.(0))
    true
    (Float.abs (result.Msm.theta.(0) -. 3.) < 0.3);
  Alcotest.(check bool)
    (Printf.sprintf "%s recovered std %.2f" name result.Msm.theta.(1))
    true
    (Float.abs (result.Msm.theta.(1) -. 1.5) < 0.3)

let test_msm_nelder_mead () =
  let result = Msm.calibrate ~seed:10 (normal_msm_problem ()) Msm.Nelder_mead in
  check_recovery "nelder-mead" result

let test_msm_genetic () =
  let params = { Mde_optimize.Genetic.default_params with population = 20; generations = 12 } in
  let result = Msm.calibrate ~seed:11 (normal_msm_problem ()) (Msm.Genetic params) in
  check_recovery "genetic" result

let test_msm_kriging_surrogate () =
  let result =
    Msm.calibrate ~seed:12 (normal_msm_problem ())
      (Msm.Kriging_surrogate { design_points = 17; refine = true })
  in
  check_recovery "kriging" result

let test_msm_regularization_shrinks () =
  (* The paper's anti-overfitting hook: a strong penalty toward a prior
     pulls the estimate toward it. *)
  let base = normal_msm_problem () in
  let prior = [| 1.0; 3.0 |] in
  let regularized =
    { base with Msm.regularization = Some { Msm.lambda = 1e7; prior } }
  in
  let free = Msm.calibrate ~seed:17 base (Msm.Random_search 200) in
  let shrunk = Msm.calibrate ~seed:17 regularized (Msm.Random_search 200) in
  let dist theta target =
    sqrt (((theta.(0) -. target.(0)) ** 2.) +. ((theta.(1) -. target.(1)) ** 2.))
  in
  Alcotest.(check bool) "penalized estimate nearer the prior" true
    (dist shrunk.Msm.theta prior < dist free.Msm.theta prior)

let test_msm_counts_simulations () =
  let problem = normal_msm_problem ~replications:5 () in
  let result = Msm.calibrate ~seed:13 problem (Msm.Random_search 30) in
  Alcotest.(check int) "budget × replications" 150 result.Msm.simulations

(* --- Market ABS --- *)

let test_market_returns_shape () =
  let rng = Rng.create ~seed:14 () in
  let params = { Market.n_agents = 100; a = 0.01; b = 0.15; noise = 0.01 } in
  let returns = Market.simulate_returns rng params ~steps:2000 ~burn_in:200 in
  Alcotest.(check int) "length" 2000 (Array.length returns);
  let m = Market.moments returns in
  Alcotest.(check int) "3 moments" 3 (Array.length m);
  Alcotest.(check bool) "variance positive" true (m.(0) > 0.)

let test_market_herding_fattens_tails () =
  (* Strong herding should raise kurtosis and |r| clustering relative to
     the no-herding baseline (averaged over replications). *)
  let kurtosis b seed =
    let rng = Rng.create ~seed () in
    let params = { Market.n_agents = 50; a = 0.005; b; noise = 0.005 } in
    let acc = ref 0. in
    for _ = 1 to 10 do
      let m = Market.moments (Market.simulate_returns rng params ~steps:1500 ~burn_in:300) in
      acc := !acc +. m.(1)
    done;
    !acc /. 10.
  in
  let calm = kurtosis 0.0 15 in
  let herding = kurtosis 0.35 15 in
  Alcotest.(check bool)
    (Printf.sprintf "kurtosis rises with herding (%.2f -> %.2f)" calm herding)
    true
    (herding > calm)

let test_market_msm_adapter () =
  let rng = Rng.create ~seed:16 () in
  let m =
    Market.simulate_moments ~steps:500 ~burn_in:100 ~n_agents:40 ~noise:0.01 rng
      [| 0.01; 0.2 |]
  in
  Alcotest.(check int) "moment vector" 3 (Array.length m)

(* Every public precondition raises Invalid_argument, with or without
   -noassert, from the function the label names first. *)
let test_preconditions_raise () =
  let raises label f =
    let prefix = List.hd (String.split_on_char ' ' label) ^ ":" in
    Alcotest.(check bool) label true
      (try
         ignore (f ());
         false
       with Invalid_argument msg -> String.starts_with ~prefix msg)
  in
  raises "Mle.exponential empty" (fun () -> Mle.exponential [||]);
  raises "Mle.exponential negative" (fun () -> Mle.exponential [| 1.; -0.5 |]);
  raises "Mle.exponential NaN" (fun () -> Mle.exponential [| 1.; Float.nan |]);
  raises "Mle.exponential zero mean" (fun () -> Mle.exponential [| 0.; 0. |]);
  raises "Mle.normal empty" (fun () -> Mle.normal [||]);
  raises "Mle.poisson empty" (fun () -> Mle.poisson [||]);
  raises "Mle.numeric empty" (fun () ->
      Mle.numeric
        ~log_density:(fun ~theta x -> -.theta.(0) *. x)
        ~bounds:[| (0.1, 5.) |] ~x0:[| 1. |] [||]);
  raises "Moments.exponential zero mean" (fun () -> Moments.exponential [| 0.; 0. |]);
  raises "Moments.solve length" (fun () ->
      Moments.solve
        ~population_moments:(fun theta -> [| theta.(0) |])
        ~observed_moments:[| 1.; 2. |] ~bounds:[| (0., 3.) |] ~x0:[| 1. |]);
  raises "Moments.sample_moments empty" (fun () ->
      Moments.sample_moments ~orders:[ 1 ] [||]);
  raises "Moments.sample_moments order 0" (fun () ->
      Moments.sample_moments ~orders:[ 1; 0 ] [| 1.; 2. |]);
  let problem = normal_msm_problem ~replications:2 () in
  let weight = Msm.weight_matrix problem in
  let rng () = Rng.create ~seed:3 () in
  raises "Msm.observed_mean none" (fun () ->
      Msm.observed_mean { problem with Msm.observed = [||] });
  raises "Msm.observed_mean ragged" (fun () ->
      Msm.observed_mean { problem with Msm.observed = [| [| 1.; 2. |]; [| 1. |] |] });
  raises "Msm.weight_matrix one sample" (fun () ->
      Msm.weight_matrix { problem with Msm.observed = [| [| 1.; 2. |] |] });
  raises "Msm.objective simulate length" (fun () ->
      Msm.objective
        { problem with Msm.simulate_moments = (fun _ _ -> [| 1. |]) }
        (rng ()) weight [| 3.; 1.5 |]);
  raises "Msm.objective prior length" (fun () ->
      Msm.objective
        { problem with Msm.regularization = Some { Msm.lambda = 1.; prior = [| 3. |] } }
        (rng ()) weight [| 3.; 1.5 |]);
  raises "Msm.calibrate design points" (fun () ->
      Msm.calibrate ~weight problem
        (Msm.Kriging_surrogate { design_points = 3; refine = false }));
  let params = { Market.n_agents = 10; a = 0.01; b = 0.2; noise = 0.01 } in
  raises "Market.simulate_returns agents" (fun () ->
      Market.simulate_returns (rng ()) { params with Market.n_agents = 1 } ~steps:10
        ~burn_in:0);
  raises "Market.simulate_returns steps" (fun () ->
      Market.simulate_returns (rng ()) params ~steps:0 ~burn_in:0);
  raises "Market.simulate_returns burn-in" (fun () ->
      Market.simulate_returns (rng ()) params ~steps:10 ~burn_in:(-1));
  raises "Market.simulate_returns herding" (fun () ->
      Market.simulate_returns (rng ()) { params with Market.b = -0.1 } ~steps:10
        ~burn_in:0);
  raises "Market.moments short" (fun () -> Market.moments [| 0.1; 0.2 |]);
  raises "Market.simulate_moments theta" (fun () ->
      Market.simulate_moments ~steps:10 ~burn_in:0 ~n_agents:10 ~noise:0.01 (rng ())
        [| 0.01 |])

let () =
  Alcotest.run "mde_calibrate"
    [
      ( "mle",
        [
          Alcotest.test_case "exponential" `Quick test_exponential_mle;
          Alcotest.test_case "normal" `Quick test_normal_mle;
          Alcotest.test_case "poisson" `Quick test_poisson_mle;
          Alcotest.test_case "numeric = closed form" `Quick test_numeric_mle_matches_closed_form;
          Alcotest.test_case "numeric 2-param" `Quick test_numeric_mle_two_params;
        ] );
      ( "moments",
        [
          Alcotest.test_case "exponential MM = MLE" `Quick test_mm_exponential_equals_mle;
          Alcotest.test_case "generic gamma" `Slow test_mm_generic_solve;
        ] );
      ( "msm",
        [
          Alcotest.test_case "weight matrix SPD" `Quick test_msm_weight_matrix_spd;
          Alcotest.test_case "J small at truth" `Quick test_msm_objective_small_at_truth;
          Alcotest.test_case "nelder-mead recovers" `Slow test_msm_nelder_mead;
          Alcotest.test_case "genetic recovers" `Slow test_msm_genetic;
          Alcotest.test_case "kriging surrogate recovers" `Slow test_msm_kriging_surrogate;
          Alcotest.test_case "counts simulations" `Quick test_msm_counts_simulations;
          Alcotest.test_case "regularization shrinks" `Quick test_msm_regularization_shrinks;
        ] );
      ( "market",
        [
          Alcotest.test_case "returns shape" `Quick test_market_returns_shape;
          Alcotest.test_case "herding fattens tails" `Slow test_market_herding_fattens_tails;
          Alcotest.test_case "msm adapter" `Quick test_market_msm_adapter;
        ] );
      ( "preconditions",
        [ Alcotest.test_case "preconditions raise" `Quick test_preconditions_raise ] );
    ]
