module Vec = Mde_linalg.Vec
module Mat = Mde_linalg.Mat
module Tridiag = Mde_linalg.Tridiag
module Ols = Mde_linalg.Ols
module Rng = Mde_prob.Rng

let check_close eps = Alcotest.(check (float eps))

let check_vec eps name expected actual =
  Alcotest.(check int) (name ^ " dim") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e -> check_close eps (Printf.sprintf "%s.(%d)" name i) e actual.(i))
    expected

(* --- Vec --- *)

let test_vec_ops () =
  let x = [| 1.; 2.; 3. |] and y = [| 4.; 5.; 6. |] in
  check_vec 1e-12 "add" [| 5.; 7.; 9. |] (Vec.add x y);
  check_vec 1e-12 "sub" [| -3.; -3.; -3. |] (Vec.sub x y);
  check_close 1e-12 "dot" 32. (Vec.dot x y);
  check_close 1e-12 "norm" (sqrt 14.) (Vec.norm2 x);
  check_close 1e-12 "dist" (sqrt 27.) (Vec.dist2 x y);
  let z = Vec.copy y in
  Vec.axpy 2. x z;
  check_vec 1e-12 "axpy" [| 6.; 9.; 12. |] z

(* --- Mat --- *)

let test_mat_mul_identity () =
  let m = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let i = Mat.identity 2 in
  let p = Mat.mul m i in
  check_close 1e-12 "same" (Mat.get m 1 0) (Mat.get p 1 0)

let test_mat_mul_known () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.mul a b in
  check_close 1e-12 "c00" 19. (Mat.get c 0 0);
  check_close 1e-12 "c01" 22. (Mat.get c 0 1);
  check_close 1e-12 "c10" 43. (Mat.get c 1 0);
  check_close 1e-12 "c11" 50. (Mat.get c 1 1)

let random_spd rng n =
  (* A = B Bᵀ + n·I is symmetric positive definite. *)
  let b = Mat.init n n (fun _ _ -> Rng.float_range rng (-1.) 1.) in
  let a = Mat.mul b (Mat.transpose b) in
  for i = 0 to n - 1 do
    Mat.set a i i (Mat.get a i i +. float_of_int n)
  done;
  a

let test_lu_solve () =
  let rng = Rng.create ~seed:41 () in
  for _ = 1 to 20 do
    let n = 2 + Rng.int rng 8 in
    let a = Mat.init n n (fun _ _ -> Rng.float_range rng (-2.) 2.) in
    for i = 0 to n - 1 do
      Mat.set a i i (Mat.get a i i +. 5.)
    done;
    let x_true = Array.init n (fun i -> float_of_int i -. 2.) in
    let b = Mat.mul_vec a x_true in
    let x = Mat.lu_solve a b in
    check_vec 1e-8 "lu solution" x_true x
  done

let test_lu_singular () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" (Failure "Mat.lu_decompose: singular matrix")
    (fun () -> ignore (Mat.lu_solve a [| 1.; 1. |]))

let test_inverse () =
  let rng = Rng.create ~seed:43 () in
  let a = random_spd rng 5 in
  let inv = Mat.inverse a in
  let p = Mat.mul a inv in
  for i = 0 to 4 do
    for j = 0 to 4 do
      check_close 1e-8 "A·A⁻¹ = I" (if i = j then 1. else 0.) (Mat.get p i j)
    done
  done

let test_cholesky () =
  let rng = Rng.create ~seed:47 () in
  let a = random_spd rng 6 in
  let l = Mat.cholesky a in
  let llt = Mat.mul l (Mat.transpose l) in
  for i = 0 to 5 do
    for j = 0 to 5 do
      check_close 1e-8 "LLᵀ = A" (Mat.get a i j) (Mat.get llt i j)
    done
  done

let test_cholesky_solve_matches_lu () =
  let rng = Rng.create ~seed:53 () in
  let a = random_spd rng 7 in
  let b = Array.init 7 (fun i -> float_of_int (i * i)) in
  check_vec 1e-7 "cholesky = lu" (Mat.lu_solve a b) (Mat.cholesky_solve a b)

let test_cholesky_rejects_non_spd () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.check_raises "not SPD" (Failure "Mat.cholesky: matrix not positive definite")
    (fun () -> ignore (Mat.cholesky a))

let test_determinant () =
  let a = Mat.of_rows [| [| 2.; 0. |]; [| 0.; 3. |] |] in
  let sign, logabs = Mat.determinant_sign_logabs a in
  check_close 1e-12 "sign" 1. sign;
  check_close 1e-12 "log|det|" (log 6.) logabs

(* --- Tridiag --- *)

let random_tridiag rng n =
  let lower = Array.init n (fun i -> if i = 0 then 0. else Rng.float_range rng (-1.) 1.) in
  let upper =
    Array.init n (fun i -> if i = n - 1 then 0. else Rng.float_range rng (-1.) 1.)
  in
  (* Diagonally dominant for stability. *)
  let diag =
    Array.init n (fun i -> 3. +. Float.abs lower.(i) +. Float.abs upper.(i))
  in
  Tridiag.create ~lower ~diag ~upper

let test_tridiag_matches_dense () =
  let rng = Rng.create ~seed:59 () in
  for _ = 1 to 20 do
    let n = 3 + Rng.int rng 20 in
    let t = random_tridiag rng n in
    let b = Array.init n (fun i -> sin (float_of_int i)) in
    let x_thomas = Tridiag.solve t b in
    let x_dense = Mat.lu_solve (Tridiag.to_dense t) b in
    check_vec 1e-8 "thomas = dense" x_dense x_thomas
  done

let test_tridiag_residual () =
  let rng = Rng.create ~seed:61 () in
  let t = random_tridiag rng 50 in
  let b = Array.init 50 (fun i -> float_of_int (i mod 7)) in
  let x = Tridiag.solve t b in
  Alcotest.(check bool) "residual tiny" true (Tridiag.residual_norm t x b < 1e-8)

let test_tridiag_mul_vec () =
  let t =
    Tridiag.create ~lower:[| 0.; 1.; 1. |] ~diag:[| 2.; 2.; 2. |] ~upper:[| 1.; 1.; 0. |]
  in
  check_vec 1e-12 "Ax" [| 4.; 8.; 8. |] (Tridiag.mul_vec t [| 1.; 2.; 3. |])

(* --- OLS --- *)

let test_ols_exact_quadratic () =
  (* y = 2 - 3t + 0.5t² sampled exactly: OLS must recover coefficients. *)
  let times = Array.init 20 float_of_int in
  let x = Mat.init 20 3 (fun i j -> times.(i) ** float_of_int j) in
  let y = Array.map (fun t -> 2. -. (3. *. t) +. (0.5 *. t *. t)) times in
  let fit = Ols.fit x y in
  check_vec 1e-6 "coefficients" [| 2.; -3.; 0.5 |] fit.Ols.coefficients;
  check_close 1e-9 "r2" 1. fit.Ols.r_squared;
  check_close 1e-6 "predict" (2. -. 9. +. 4.5) (Ols.predict fit [| 1.; 3.; 9. |])

let test_ols_noisy_recovers () =
  let rng = Rng.create ~seed:67 () in
  let n = 2000 in
  let x = Mat.init n 2 (fun i j -> if j = 0 then 1. else float_of_int i /. 100.) in
  let y =
    Array.init n (fun i ->
        1.5 +. (0.7 *. float_of_int i /. 100.) +. Rng.float_range rng (-0.1) 0.1)
  in
  let fit = Ols.fit x y in
  check_close 0.02 "intercept" 1.5 fit.Ols.coefficients.(0);
  check_close 0.005 "slope" 0.7 fit.Ols.coefficients.(1)

let test_ols_ridge_shrinks () =
  let x = Mat.init 10 2 (fun i j -> if j = 0 then 1. else float_of_int i) in
  let y = Array.init 10 (fun i -> float_of_int (2 * i)) in
  let plain = Ols.fit x y in
  let ridged = Ols.fit ~ridge:100. x y in
  Alcotest.(check bool)
    "ridge shrinks slope" true
    (Float.abs ridged.Ols.coefficients.(1) < Float.abs plain.Ols.coefficients.(1))

let test_ols_standard_errors () =
  let rng = Rng.create ~seed:71 () in
  let n = 500 in
  let x = Mat.init n 2 (fun i j -> if j = 0 then 1. else float_of_int i /. 50.) in
  let y = Array.init n (fun i -> 1. +. float_of_int i /. 50. +. Rng.float_range rng (-0.5) 0.5) in
  let fit = Ols.fit x y in
  let se = Ols.standard_errors x y fit in
  Alcotest.(check bool) "positive" true (se.(0) > 0. && se.(1) > 0.);
  Alcotest.(check bool) "small" true (se.(1) < 0.05)

(* --- QCheck --- *)

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (r, c) ->
      let rng = Rng.create ~seed:(r + (10 * c)) () in
      let m = Mat.init r c (fun _ _ -> Rng.float rng) in
      let tt = Mat.transpose (Mat.transpose m) in
      let ok = ref true in
      for i = 0 to r - 1 do
        for j = 0 to c - 1 do
          if Mat.get m i j <> Mat.get tt i j then ok := false
        done
      done;
      !ok)

let prop_solve_residual =
  QCheck.Test.make ~name:"tridiagonal solve has tiny residual" ~count:50
    QCheck.(int_range 3 60)
    (fun n ->
      let rng = Rng.create ~seed:n () in
      let t = random_tridiag rng n in
      let b = Array.init n (fun _ -> Rng.float_range rng (-10.) 10.) in
      let x = Tridiag.solve t b in
      Tridiag.residual_norm t x b < 1e-7)

(* Each precondition is a real [Invalid_argument] with its constant
   message, one test per check, so it holds under [--profile noassert]
   too. *)
let validation checks =
  List.map
    (fun (name, msg, f) ->
      Alcotest.test_case ("rejects " ^ name) `Quick (fun () ->
          match f () with
          | () -> Alcotest.failf "%s: accepted" name
          | exception Invalid_argument got -> Alcotest.(check string) name msg got))
    checks

let m22 = Mat.identity 2
let m23 = Mat.create 2 3
let v2 = [| 1.; 2. |]
let v3 = [| 1.; 2.; 3. |]
let band = Tridiag.create ~lower:[| 0.; 1. |] ~diag:[| 2.; 2. |] ~upper:[| 1.; 0. |]

let vec_validation =
  validation
    [
      ("add", "Vec.add: lengths differ", fun () -> ignore (Vec.add v2 v3));
      ("sub", "Vec.sub: lengths differ", fun () -> ignore (Vec.sub v2 v3));
      ("dot", "Vec.dot: lengths differ", fun () -> ignore (Vec.dot v2 v3));
      ("dist2", "Vec.dist2: lengths differ", fun () -> ignore (Vec.dist2 v2 v3));
      ("axpy", "Vec.axpy: lengths differ", fun () -> Vec.axpy 1. v2 (Array.copy v3));
      ("map2", "Vec.map2: lengths differ", fun () -> ignore (Vec.map2 ( +. ) v2 v3));
    ]

let mat_validation =
  validation
    [
      ( "negative create",
        "Mat.create: dimensions must be non-negative",
        fun () -> ignore (Mat.create 2 (-1)) );
      ("of_rows empty", "Mat.of_rows: no rows", fun () -> ignore (Mat.of_rows [||]));
      ( "of_rows ragged",
        "Mat.of_rows: rows of unequal length",
        fun () -> ignore (Mat.of_rows [| v2; v3 |]) );
      ("get outside", "Mat.get: index out of bounds", fun () -> ignore (Mat.get m22 2 0));
      ("set outside", "Mat.set: index out of bounds", fun () -> Mat.set m22 0 (-1) 1.);
      ("add mismatch", "Mat.add: dimensions differ", fun () -> ignore (Mat.add m22 m23));
      ("sub mismatch", "Mat.sub: dimensions differ", fun () -> ignore (Mat.sub m22 m23));
      ("mul mismatch", "Mat.mul: inner dimensions differ", fun () -> ignore (Mat.mul m23 m23));
      ( "mul_vec mismatch",
        "Mat.mul_vec: vector length differs from cols",
        fun () -> ignore (Mat.mul_vec m23 v2) );
      ( "trans_mul_vec mismatch",
        "Mat.trans_mul_vec: vector length differs from rows",
        fun () -> ignore (Mat.trans_mul_vec m23 v3) );
      ( "lu non-square",
        "Mat.lu_decompose: matrix is not square",
        fun () -> ignore (Mat.lu_solve m23 v2) );
      ( "lu_solve b length",
        "Mat.lu_solve: b length differs from rows",
        fun () -> ignore (Mat.lu_solve m22 v3) );
      ( "lu_solve_many rows",
        "Mat.lu_solve_many: row counts differ",
        fun () -> ignore (Mat.lu_solve_many m22 (Mat.create 3 1)) );
      ( "cholesky non-square",
        "Mat.cholesky: matrix is not square",
        fun () -> ignore (Mat.cholesky m23) );
      ( "cholesky_solve b length",
        "Mat.cholesky_solve: b length differs from rows",
        fun () -> ignore (Mat.cholesky_solve m22 v3) );
    ]

let tridiag_validation =
  validation
    [
      ( "ragged bands",
        "Tridiag.create: bands of unequal length",
        fun () -> ignore (Tridiag.create ~lower:v3 ~diag:v2 ~upper:v2) );
      ( "empty solve",
        "Tridiag.solve: empty system",
        fun () -> ignore (Tridiag.solve (Tridiag.create ~lower:[||] ~diag:[||] ~upper:[||]) [||]) );
      ( "solve b length",
        "Tridiag.solve: b length differs from the dimension",
        fun () -> ignore (Tridiag.solve band v3) );
      ( "mul_vec length",
        "Tridiag.mul_vec: x length differs from the dimension",
        fun () -> ignore (Tridiag.mul_vec band v3) );
      ("row outside", "Tridiag.row: index out of bounds", fun () -> ignore (Tridiag.row band 0 2));
    ]

let ols_validation =
  let x = Mat.of_rows [| [| 1.; 0. |]; [| 1.; 1. |] |] in
  validation
    [
      ( "fit y length",
        "Ols.fit: y length differs from the rows of x",
        fun () -> ignore (Ols.fit x v3) );
      ( "fit too few rows",
        "Ols.fit: x needs columns and at least as many rows",
        fun () -> ignore (Ols.fit (Mat.of_rows [| v3 |]) [| 1. |]) );
      ( "standard errors rows",
        "Ols.standard_errors: x needs more rows than columns",
        fun () -> ignore (Ols.standard_errors x v2 (Ols.fit x v2)) );
    ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mde_linalg"
    [
      ("vec", Alcotest.test_case "ops" `Quick test_vec_ops :: vec_validation);
      ( "mat",
        [
          Alcotest.test_case "mul identity" `Quick test_mat_mul_identity;
          Alcotest.test_case "mul known" `Quick test_mat_mul_known;
          Alcotest.test_case "lu solve" `Quick test_lu_solve;
          Alcotest.test_case "lu singular" `Quick test_lu_singular;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "cholesky factor" `Quick test_cholesky;
          Alcotest.test_case "cholesky = lu" `Quick test_cholesky_solve_matches_lu;
          Alcotest.test_case "cholesky rejects" `Quick test_cholesky_rejects_non_spd;
          Alcotest.test_case "determinant" `Quick test_determinant;
        ]
        @ mat_validation );
      ( "tridiag",
        [
          Alcotest.test_case "matches dense LU" `Quick test_tridiag_matches_dense;
          Alcotest.test_case "residual" `Quick test_tridiag_residual;
          Alcotest.test_case "mul_vec" `Quick test_tridiag_mul_vec;
        ]
        @ tridiag_validation );
      ( "ols",
        [
          Alcotest.test_case "exact quadratic" `Quick test_ols_exact_quadratic;
          Alcotest.test_case "noisy line" `Quick test_ols_noisy_recovers;
          Alcotest.test_case "ridge shrinks" `Quick test_ols_ridge_shrinks;
          Alcotest.test_case "standard errors" `Quick test_ols_standard_errors;
        ]
        @ ols_validation );
      ("properties", qc [ prop_transpose_involution; prop_solve_residual ]);
    ]
