module Splash = Mde_composite.Splash
module Rc = Mde_composite.Result_cache
module Rng = Mde_prob.Rng
module Dist = Mde_prob.Dist
module Series = Mde_timeseries.Series

let check_close eps = Alcotest.(check (float eps))

(* --- Splash composition --- *)

let demand_model =
  {
    Splash.name = "demand";
    description = "customer arrival intensity series";
    inputs = [ "base_rate" ];
    outputs = [ "arrivals" ];
    run =
      (fun rng inputs ->
        match inputs with
        | [ Splash.Number rate ] ->
          let times = Series.regular_times ~start:0. ~step:1. ~count:24 in
          let values =
            Array.map
              (fun _ ->
                rate
                *. (1. +. (0.2 *. Dist.sample (Dist.Normal { mean = 0.; std = 1. }) rng)))
              times
          in
          [ Splash.Timeseries (Series.create ~times ~values) ]
        | _ -> Alcotest.fail "demand: bad inputs");
  }

let queue_model =
  {
    Splash.name = "queue";
    description = "mean wait from arrival intensities";
    inputs = [ "arrivals" ];
    outputs = [ "mean_wait" ];
    run =
      (fun _rng inputs ->
        match inputs with
        | [ Splash.Timeseries s ] ->
          let load = Mde_prob.Stats.mean (Series.values s) in
          [ Splash.Number (load /. (10. -. Float.min 9.9 load)) ]
        | _ -> Alcotest.fail "queue: bad inputs");
  }

let test_compose_and_execute () =
  let c =
    Splash.compose ~name:"demand-queue" ~models:[ queue_model; demand_model ]
      ~transforms:[]
  in
  Alcotest.(check (list string)) "topological order" [ "demand"; "queue" ]
    (Splash.execution_order c);
  let rng = Rng.create ~seed:1 () in
  let out = Splash.execute c rng ~inputs:[ ("base_rate", Splash.Number 5.) ] in
  match List.assoc "mean_wait" out with
  | Splash.Number w -> Alcotest.(check bool) "wait positive" true (w > 0.)
  | _ -> Alcotest.fail "expected number"

let test_compose_detects_cycle () =
  let a =
    { Splash.name = "a"; description = ""; inputs = [ "y" ]; outputs = [ "x" ];
      run = (fun _ _ -> []) }
  in
  let b =
    { Splash.name = "b"; description = ""; inputs = [ "x" ]; outputs = [ "y" ];
      run = (fun _ _ -> []) }
  in
  Alcotest.(check bool) "cycle rejected" true
    (try
       ignore (Splash.compose ~name:"bad" ~models:[ a; b ] ~transforms:[]);
       false
     with Invalid_argument _ -> true)

let test_compose_detects_double_producer () =
  let a =
    { Splash.name = "a"; description = ""; inputs = []; outputs = [ "x" ];
      run = (fun _ _ -> [ Splash.Number 0. ]) }
  in
  let b =
    { Splash.name = "b"; description = ""; inputs = []; outputs = [ "x" ];
      run = (fun _ _ -> [ Splash.Number 0. ]) }
  in
  Alcotest.(check bool) "double producer rejected" true
    (try
       ignore (Splash.compose ~name:"bad" ~models:[ a; b ] ~transforms:[]);
       false
     with Invalid_argument _ -> true)

let test_missing_input_detected () =
  let c = Splash.compose ~name:"dq" ~models:[ demand_model; queue_model ] ~transforms:[] in
  let rng = Rng.create ~seed:2 () in
  Alcotest.(check bool) "missing dataset detected" true
    (try
       ignore (Splash.execute c rng ~inputs:[]);
       false
     with Invalid_argument _ -> true)

let test_transform_applied () =
  (* Align the demand model's 24 hourly ticks down to 6 four-hour ticks
     before the queue model reads them. *)
  let target_times = Series.regular_times ~start:3. ~step:4. ~count:6 in
  let c =
    Splash.compose ~name:"dq-aligned"
      ~models:[ demand_model; queue_model ]
      ~transforms:[ Splash.time_align_transform ~dataset:"arrivals" ~target_times ]
  in
  let rng = Rng.create ~seed:3 () in
  let out = Splash.execute c rng ~inputs:[ ("base_rate", Splash.Number 5.) ] in
  (match List.assoc "arrivals" out with
  | Splash.Timeseries s -> Alcotest.(check int) "aligned length" 6 (Series.length s)
  | _ -> Alcotest.fail "expected series");
  match List.assoc "mean_wait" out with
  | Splash.Number w -> Alcotest.(check bool) "still works" true (w > 0.)
  | _ -> Alcotest.fail "expected number"

let test_monte_carlo_reps () =
  let c = Splash.compose ~name:"dq" ~models:[ demand_model; queue_model ] ~transforms:[] in
  let rng = Rng.create ~seed:4 () in
  let samples =
    Splash.monte_carlo c rng ~inputs:[ ("base_rate", Splash.Number 5.) ] ~reps:20
      ~query:(fun out ->
        match List.assoc "mean_wait" out with
        | Splash.Number w -> w
        | _ -> nan)
  in
  Alcotest.(check int) "20 reps" 20 (Array.length samples);
  Alcotest.(check bool) "variation across reps" true
    (Mde_prob.Stats.std samples > 0.)

let test_monte_carlo_reproducible () =
  (* Identical seeds give bit-identical Monte Carlo runs — the property
     every experiment in EXPERIMENTS.md relies on. *)
  let c = Splash.compose ~name:"dq" ~models:[ demand_model; queue_model ] ~transforms:[] in
  let sample seed =
    Splash.monte_carlo c (Rng.create ~seed ())
      ~inputs:[ ("base_rate", Splash.Number 5.) ]
      ~reps:10
      ~query:(fun out ->
        match List.assoc "mean_wait" out with Splash.Number w -> w | _ -> nan)
  in
  Alcotest.(check (array (float 0.))) "same seed, same samples" (sample 99) (sample 99);
  Alcotest.(check bool) "different seed differs" true (sample 99 <> sample 100)

(* --- Result caching theory --- *)

let stats_example = { Rc.c1 = 9.; c2 = 1.; v1 = 1.; v2 = 0.25 }

let test_g_formulas () =
  (* α = 1: r = 1, g = (c1+c2)·(V1 + (2-2)V2) = (c1+c2)·V1. *)
  check_close 1e-9 "g(1)" 10. (Rc.g stats_example 1.);
  check_close 1e-9 "g~(1)" 10. (Rc.g_approx stats_example 1.);
  (* α = 0.5: r = 2, bracket = V1 + (4 - 3)·V2. *)
  check_close 1e-9 "g(0.5)" (5.5 *. 1.25) (Rc.g stats_example 0.5)

let test_alpha_star_interior () =
  (* α* = sqrt((c2/c1)/(V1/V2 − 1)) = sqrt((1/9)/3) = 1/sqrt(27). *)
  check_close 1e-9 "alpha*" (1. /. sqrt 27.) (Rc.alpha_star stats_example)

let test_alpha_star_degenerate () =
  check_close 1e-9 "V2=0 → 0" 0. (Rc.alpha_star { stats_example with v2 = 0. });
  check_close 1e-9 "V2=V1 → 1" 1. (Rc.alpha_star { stats_example with v2 = 1. });
  (* Huge c2 pushes α* to the cap. *)
  check_close 1e-9 "cap at 1" 1. (Rc.alpha_star { Rc.c1 = 1.; c2 = 100.; v1 = 1.; v2 = 0.5 })

let test_g_minimized_near_alpha_star () =
  let star = Rc.alpha_star stats_example in
  let g_star = Rc.g_approx stats_example star in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "g~(%g) >= g~(α*)" a)
        true
        (Rc.g_approx stats_example a >= g_star -. 1e-12))
    [ 0.05; 0.1; 0.3; 0.5; 0.8; 1.0 ]

let test_efficiency_gain_positive () =
  Alcotest.(check bool) "caching helps here" true (Rc.efficiency_gain stats_example > 1.)

(* --- RC estimator --- *)

(* M1 ~ N(5, 2²); M2 adds N(0, 1) noise: θ = 5, V1 = 5, V2 = 4. *)
let two_stage =
  {
    Rc.model1 = (fun rng -> Dist.sample (Dist.Normal { mean = 5.; std = 2. }) rng);
    model2 =
      (fun rng y1 -> y1 +. Dist.sample (Dist.Normal { mean = 0.; std = 1. }) rng);
  }

let test_rc_estimator_unbiased () =
  let rng = Rng.create ~seed:5 () in
  let estimates =
    Array.init 200 (fun _ ->
        (Rc.estimate two_stage rng ~n:100 ~alpha:0.3).Rc.theta_hat)
  in
  check_close 0.1 "mean of estimates" 5. (Mde_prob.Stats.mean estimates)

let test_rc_estimator_m_count () =
  let rng = Rng.create ~seed:6 () in
  let e = Rc.estimate two_stage rng ~n:100 ~alpha:0.25 in
  Alcotest.(check int) "m = ceil(αn)" 25 e.Rc.m;
  Alcotest.(check int) "n" 100 e.Rc.n

let test_rc_variance_matches_theory () =
  (* Empirical per-n variance at fixed n should track the bracket factor
     V1 + [2r − αr(r+1)]V2 from the g formula. *)
  let stats = { Rc.c1 = 1.; c2 = 1.; v1 = 5.; v2 = 4. } in
  let rng = Rng.create ~seed:7 () in
  let variance_at alpha =
    let xs =
      Array.init 600 (fun _ ->
          (Rc.estimate two_stage rng ~n:60 ~alpha).Rc.theta_hat)
    in
    Mde_prob.Stats.variance xs
  in
  let v_full = variance_at 1.0 in
  let v_cached = variance_at 0.25 in
  (* At fixed n, caching with positive V2 *raises* per-n variance. *)
  Alcotest.(check bool) "per-n variance rises with caching" true (v_cached > v_full);
  (* The bracket factor ratio for α = 0.25: r = 4, factor = V1 + (8 − 5)V2 = 17
     vs V1 = 5 at α = 1 → ratio 3.4. Empirical ratio within a factor ~1.6. *)
  let predicted = 17. /. 5. in
  let observed = v_cached /. v_full in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f near %.2f" observed predicted)
    true
    (observed > predicted /. 1.6 && observed < predicted *. 1.6);
  ignore stats

let test_rc_budget () =
  let rng = Rng.create ~seed:8 () in
  let stats = { Rc.c1 = 10.; c2 = 1.; v1 = 5.; v2 = 4. } in
  let e = Rc.estimate_under_budget two_stage rng ~budget:200. ~alpha:0.5 ~stats in
  (* C_n = ceil(0.5n)·10 + n ≤ 200: n = 32 gives 192, n = 33 gives 203. *)
  Alcotest.(check int) "N(c)" 32 e.Rc.n;
  Alcotest.(check bool) "tiny budget rejected" true
    (try
       ignore (Rc.estimate_under_budget two_stage rng ~budget:0.5 ~alpha:0.5 ~stats);
       false
     with Invalid_argument _ -> true)

let test_pilot_recovers_variance_components () =
  let rng = Rng.create ~seed:9 () in
  let p = Rc.pilot two_stage rng ~inputs:400 ~outputs_per_input:4 in
  let s = p.Rc.statistics in
  (* True V1 = 4 + 1 = 5, V2 = 4. *)
  Alcotest.(check bool)
    (Printf.sprintf "v1=%.2f near 5" s.Rc.v1)
    true
    (s.Rc.v1 > 4.0 && s.Rc.v1 < 6.0);
  Alcotest.(check bool)
    (Printf.sprintf "v2=%.2f near 4" s.Rc.v2)
    true
    (s.Rc.v2 > 3.0 && s.Rc.v2 < 5.0);
  Alcotest.(check bool) "costs positive" true (s.Rc.c1 > 0. && s.Rc.c2 > 0.)

let test_transformer_m2_detected () =
  (* M2 deterministic given Y1 → V1 = V2 → α* = 1 (no caching). *)
  let det = { Rc.model1 = two_stage.Rc.model1; model2 = (fun _ y1 -> 2. *. y1) } in
  let rng = Rng.create ~seed:10 () in
  let p = Rc.pilot det rng ~inputs:100 ~outputs_per_input:3 in
  check_close 1e-6 "alpha* = 1" 1. (Rc.alpha_star p.Rc.statistics)

module Experiment = Mde_composite.Experiment

(* --- Experiment manager --- *)

(* A cheap composite whose response is an analytic function of two
   parameters, so metamodel quality is checkable. *)
let analytic_model =
  {
    Splash.name = "analytic";
    description = "y = sin(3a) + b^2 + noise";
    inputs = [ "a"; "b" ];
    outputs = [ "y" ];
    run =
      (fun rng inputs ->
        match inputs with
        | [ Splash.Number a; Splash.Number b ] ->
          [ Splash.Number
              (sin (3. *. a) +. (b *. b)
              +. Dist.sample (Dist.Normal { mean = 0.; std = 0.02 }) rng) ]
        | _ -> Alcotest.fail "analytic: bad inputs");
  }

let analytic_composite =
  Splash.compose ~name:"analytic" ~models:[ analytic_model ] ~transforms:[]

let response outputs =
  match List.assoc "y" outputs with Splash.Number y -> y | _ -> nan

let run_experiment ?(replications = 1) design =
  Experiment.run ~replications ~rng:(Rng.create ~seed:21 ()) ~design
    ~parameters:
      [
        Experiment.number_parameter ~factor:"a" ~dataset:"a" ~low:0. ~high:1.;
        Experiment.number_parameter ~factor:"b" ~dataset:"b" ~low:(-1.) ~high:1.;
      ]
    ~composite:analytic_composite ~fixed_inputs:[] ~response ()

let test_experiment_full_factorial () =
  let result = run_experiment Experiment.Full_factorial in
  Alcotest.(check int) "4 corners" 4 (Array.length result.Experiment.design);
  Alcotest.(check int) "4 runs" 4 (Array.length result.Experiment.runs);
  (* Corners in natural units. *)
  Array.iter
    (fun point ->
      Alcotest.(check bool) "a at an endpoint" true (point.(0) = 0. || point.(0) = 1.);
      Alcotest.(check bool) "b at an endpoint" true (point.(1) = -1. || point.(1) = 1.))
    result.Experiment.design

let test_experiment_replications () =
  let result = run_experiment ~replications:5 (Experiment.Latin_hypercube { levels = 6 }) in
  Alcotest.(check int) "6 points" 6 (Array.length result.Experiment.design);
  Alcotest.(check int) "30 runs" 30 (Array.length result.Experiment.runs);
  Alcotest.(check bool) "variance measured" true
    (Array.exists (fun v -> v > 0.) result.Experiment.response_variance)

let test_experiment_metamodel () =
  let result = run_experiment ~replications:3 (Experiment.Nolh { levels = 15; tries = 40 }) in
  let model = Experiment.fit_kriging_metamodel result in
  (* Simulation on demand: check the metamodel against the analytic truth. *)
  let worst = ref 0. in
  for i = 0 to 10 do
    for j = 0 to 10 do
      let a = float_of_int i /. 10. and b = -1. +. (float_of_int j /. 5.) in
      let truth = sin (3. *. a) +. (b *. b) in
      worst :=
        Float.max !worst
          (Float.abs (Mde_metamodel.Kriging.predict model [| a; b |] -. truth))
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "metamodel max error %.3f < 0.3" !worst)
    true (!worst < 0.3)

let test_experiment_template_overrides () =
  (* A fixed input for "a" must be overridden by the templated factor. *)
  let result =
    Experiment.run ~rng:(Rng.create ~seed:22 ())
      ~design:Experiment.Full_factorial
      ~parameters:
        [ Experiment.number_parameter ~factor:"a" ~dataset:"a" ~low:0.5 ~high:0.5 ]
      ~composite:
        (Splash.compose ~name:"one"
           ~models:
             [
               {
                 Splash.name = "id";
                 description = "";
                 inputs = [ "a"; "b" ];
                 outputs = [ "y" ];
                 run =
                   (fun _ inputs ->
                     match inputs with
                     | [ Splash.Number a; Splash.Number b ] ->
                       [ Splash.Number (a +. b) ]
                     | _ -> Alcotest.fail "bad");
               };
             ]
           ~transforms:[])
      ~fixed_inputs:[ ("a", Splash.Number 99.); ("b", Splash.Number 1.) ]
      ~response:(fun outputs ->
        match List.assoc "y" outputs with Splash.Number y -> y | _ -> nan)
      ()
  in
  Array.iter
    (fun r ->
      check_close 1e-9 "templated a=0.5 used, fixed b kept" 1.5 r.Experiment.response)
    result.Experiment.runs

let test_transform_type_error () =
  let tr = Splash.time_align_transform ~dataset:"x" ~target_times:[| 0.; 1. |] in
  Alcotest.(check bool) "number rejected by aligner" true
    (try
       ignore (tr.Splash.apply (Splash.Number 3.));
       false
     with Invalid_argument _ -> true)

let test_resample_transform () =
  let tr = Splash.resample_transform ~dataset:"s" ~step:2. in
  let series =
    Series.create
      ~times:[| 0.; 1.; 2.; 3.; 4.; 5.; 6. |]
      ~values:[| 0.; 1.; 2.; 3.; 4.; 5.; 6. |]
  in
  match tr.Splash.apply (Splash.Timeseries series) with
  | Splash.Timeseries out ->
    Alcotest.(check int) "4 ticks at step 2" 4 (Series.length out);
    check_close 1e-9 "starts at range start" 0. (Series.start_time out)
  | _ -> Alcotest.fail "expected timeseries"

(* Preconditions raise Invalid_argument, with or without -noassert. *)
let rejects =
  let composite =
    Splash.compose ~name:"dq" ~models:[ demand_model; queue_model ] ~transforms:[]
  in
  let rng () = Rng.create ~seed:1 () in
  List.map
    (fun (name, msg, f) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.check_raises name (Invalid_argument msg) f))
    [ ( "resample step <= 0", "Splash.resample_transform: step must be > 0",
        fun () -> ignore (Splash.resample_transform ~dataset:"s" ~step:0.) );
      ( "monte_carlo reps < 1", "Splash.monte_carlo: reps must be >= 1",
        fun () ->
          ignore
            (Splash.monte_carlo composite (rng ()) ~inputs:[] ~reps:0 ~query:(fun _ -> 0.)) );
      ( "alpha_star c1 <= 0", "Result_cache.alpha_star: costs must be > 0 and variances >= 0",
        fun () -> ignore (Rc.alpha_star { stats_example with Rc.c1 = 0. }) );
      ( "estimate n < 1", "Result_cache.estimate: n must be >= 1",
        fun () -> ignore (Rc.estimate two_stage (rng ()) ~n:0 ~alpha:0.5) );
      ( "pilot inputs < 2", "Result_cache.pilot: inputs and outputs_per_input must be >= 2",
        fun () -> ignore (Rc.pilot two_stage (rng ()) ~inputs:1 ~outputs_per_input:2) );
      ( "experiment replications < 1", "Experiment.run: replications must be >= 1",
        fun () -> ignore (run_experiment ~replications:0 Experiment.Full_factorial) );
      ( "experiment without parameters", "Experiment.run: no parameters to vary",
        fun () ->
          ignore
            (Experiment.run ~rng:(rng ()) ~design:Experiment.Full_factorial ~parameters:[]
               ~composite:analytic_composite ~fixed_inputs:[] ~response ()) ) ]

let () =
  Alcotest.run "mde_composite"
    [
      ( "splash",
        [
          Alcotest.test_case "compose + execute" `Quick test_compose_and_execute;
          Alcotest.test_case "cycle detection" `Quick test_compose_detects_cycle;
          Alcotest.test_case "double producer" `Quick test_compose_detects_double_producer;
          Alcotest.test_case "missing input" `Quick test_missing_input_detected;
          Alcotest.test_case "transform applied" `Quick test_transform_applied;
          Alcotest.test_case "monte carlo" `Quick test_monte_carlo_reps;
          Alcotest.test_case "reproducible" `Quick test_monte_carlo_reproducible;
        ] );
      ( "theory",
        [
          Alcotest.test_case "g formulas" `Quick test_g_formulas;
          Alcotest.test_case "alpha* interior" `Quick test_alpha_star_interior;
          Alcotest.test_case "alpha* degenerate" `Quick test_alpha_star_degenerate;
          Alcotest.test_case "g minimized at alpha*" `Quick test_g_minimized_near_alpha_star;
          Alcotest.test_case "efficiency gain" `Quick test_efficiency_gain_positive;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "full factorial" `Quick test_experiment_full_factorial;
          Alcotest.test_case "replications" `Quick test_experiment_replications;
          Alcotest.test_case "metamodel on demand" `Quick test_experiment_metamodel;
          Alcotest.test_case "template overrides" `Quick test_experiment_template_overrides;
          Alcotest.test_case "resample transform" `Quick test_resample_transform;
          Alcotest.test_case "transform type error" `Quick test_transform_type_error;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "unbiased" `Slow test_rc_estimator_unbiased;
          Alcotest.test_case "m count" `Quick test_rc_estimator_m_count;
          Alcotest.test_case "variance vs theory" `Slow test_rc_variance_matches_theory;
          Alcotest.test_case "budget constrained" `Quick test_rc_budget;
          Alcotest.test_case "pilot ANOVA" `Slow test_pilot_recovers_variance_components;
          Alcotest.test_case "transformer M2" `Quick test_transformer_m2_detected;
        ] );
      ("preconditions", rejects);
    ]
