module Nm = Mde_optimize.Nelder_mead
module Genetic = Mde_optimize.Genetic
module Search = Mde_optimize.Search
module Rng = Mde_prob.Rng

let check_close eps = Alcotest.(check (float eps))

let sphere x = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. x

let shifted_quadratic x =
  ((x.(0) -. 3.) ** 2.) +. (2. *. ((x.(1) +. 1.) ** 2.)) +. 5.

let rosenbrock x =
  let a = 1. -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
  (a *. a) +. (100. *. b *. b)

let test_nm_quadratic () =
  let r = Nm.minimize ~f:shifted_quadratic ~x0:[| 0.; 0. |] () in
  Alcotest.(check bool) "converged" true r.Nm.converged;
  check_close 1e-3 "x0" 3. r.Nm.x.(0);
  check_close 1e-3 "x1" (-1.) r.Nm.x.(1);
  check_close 1e-5 "f" 5. r.Nm.f

let test_nm_rosenbrock () =
  let r = Nm.minimize ~max_iter:5000 ~f:rosenbrock ~x0:[| -1.2; 1. |] () in
  check_close 0.01 "x0" 1. r.Nm.x.(0);
  check_close 0.02 "x1" 1. r.Nm.x.(1)

let test_nm_1d () =
  let r = Nm.minimize ~f:(fun x -> Float.abs (x.(0) -. 7.)) ~x0:[| 0. |] () in
  check_close 1e-3 "1d" 7. r.Nm.x.(0)

let test_nm_counts_evaluations () =
  let count = ref 0 in
  let f x =
    incr count;
    sphere x
  in
  let r = Nm.minimize ~f ~x0:[| 1.; 1. |] () in
  Alcotest.(check int) "counter matches" !count r.Nm.evaluations

let test_nm_box () =
  (* Unconstrained optimum at (3,-1); box forces x0 <= 2. *)
  let bounds = [| (0., 2.); (-5., 5.) |] in
  let r = Nm.minimize_box ~bounds ~f:shifted_quadratic ~x0:[| 1.; 0. |] () in
  Alcotest.(check bool) "within box" true (r.Nm.x.(0) >= 0. && r.Nm.x.(0) <= 2.);
  check_close 0.01 "hits boundary" 2. r.Nm.x.(0);
  check_close 0.01 "free coordinate" (-1.) r.Nm.x.(1)

let test_genetic_sphere () =
  let rng = Rng.create ~seed:1 () in
  let bounds = Array.make 3 (-5., 5.) in
  let r = Genetic.minimize ~rng ~bounds ~f:sphere () in
  Alcotest.(check bool)
    (Printf.sprintf "near origin (f=%.4f)" r.Genetic.f)
    true (r.Genetic.f < 0.05);
  Array.iter
    (fun v -> Alcotest.(check bool) "bounded" true (v >= -5. && v <= 5.))
    r.Genetic.x

let test_genetic_monotone_best () =
  let rng = Rng.create ~seed:2 () in
  let bounds = Array.make 2 (-4., 4.) in
  let r = Genetic.minimize ~rng ~bounds ~f:shifted_quadratic () in
  let best = r.Genetic.best_per_generation in
  for g = 1 to Array.length best - 1 do
    Alcotest.(check bool) "elitism keeps best" true (best.(g) <= best.(g - 1) +. 1e-9)
  done

let test_random_search () =
  let rng = Rng.create ~seed:3 () in
  let bounds = [| (-10., 10.); (-10., 10.) |] in
  let r = Search.random_search ~rng ~bounds ~f:sphere ~evaluations:2000 in
  Alcotest.(check int) "budget spent" 2000 r.Search.evaluations;
  Alcotest.(check bool) "rough minimum" true (r.Search.f < 1.)

let test_grid_search () =
  let bounds = [| (0., 10.); (0., 10.) |] in
  let f x = ((x.(0) -. 5.) ** 2.) +. ((x.(1) -. 7.5) ** 2.) in
  let r = Search.grid_search ~bounds ~f ~points_per_dim:5 in
  Alcotest.(check int) "5^2 evaluations" 25 r.Search.evaluations;
  check_close 1e-9 "x0 on grid" 5. r.Search.x.(0);
  check_close 1e-9 "x1 on grid" 7.5 r.Search.x.(1)

(* Preconditions raise Invalid_argument, with or without -noassert. *)
let test_preconditions () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ())) in
  let bounds = [| (0., 1.) |] in
  raises "Search.random_search: evaluations must be at least 1" (fun () ->
      Search.random_search ~rng:(Rng.create ~seed:1 ()) ~bounds ~f:sphere ~evaluations:0);
  raises "Search.grid_search: points_per_dim must be at least 2" (fun () ->
      Search.grid_search ~bounds ~f:sphere ~points_per_dim:1);
  raises "Genetic.minimize: needs a dimension, population >= 4 and elite < population"
    (fun () -> Genetic.minimize ~rng:(Rng.create ~seed:1 ()) ~bounds:[||] ~f:sphere ());
  raises "Nelder_mead.minimize: x0 must have at least one coordinate" (fun () ->
      Nm.minimize ~f:sphere ~x0:[||] ())

let prop_nm_box_stays_inside =
  QCheck.Test.make ~name:"box-constrained NM stays inside bounds" ~count:50
    QCheck.(pair (float_range (-3.) 0.) (float_range 0.5 3.))
    (fun (lo, hi) ->
      let bounds = [| (lo, hi) |] in
      let r = Nm.minimize_box ~bounds ~f:(fun x -> -.x.(0)) ~x0:[| lo |] () in
      r.Nm.x.(0) >= lo -. 1e-9 && r.Nm.x.(0) <= hi +. 1e-9)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mde_optimize"
    [
      ( "nelder_mead",
        [
          Alcotest.test_case "quadratic" `Quick test_nm_quadratic;
          Alcotest.test_case "rosenbrock" `Quick test_nm_rosenbrock;
          Alcotest.test_case "1d" `Quick test_nm_1d;
          Alcotest.test_case "evaluation count" `Quick test_nm_counts_evaluations;
          Alcotest.test_case "box constraints" `Quick test_nm_box;
        ] );
      ( "genetic",
        [
          Alcotest.test_case "sphere" `Quick test_genetic_sphere;
          Alcotest.test_case "monotone best" `Quick test_genetic_monotone_best;
        ] );
      ( "search",
        [
          Alcotest.test_case "random" `Quick test_random_search;
          Alcotest.test_case "grid" `Quick test_grid_search;
          Alcotest.test_case "invalid inputs raise" `Quick test_preconditions;
        ] );
      ("properties", qc [ prop_nm_box_stays_inside ]);
    ]
