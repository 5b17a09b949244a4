module Mat = Mde_linalg.Mat

let covariance ~theta ~tau2 a b =
  if Array.length a <> Array.length b || Array.length a <> Array.length theta then
    invalid_arg "Kriging.covariance: points and theta differ in length";
  let acc = ref 0. in
  Array.iteri
    (fun k ak ->
      let d = ak -. b.(k) in
      acc := !acc +. (theta.(k) *. d *. d))
    a;
  tau2 *. exp (-. !acc)

type t = {
  design : float array array;
  theta : float array;
  tau2 : float;
  beta0 : float;
  (* Precomputed Σ⁻¹(y − β₀1) and Σ (with any nugget / Σ_ε included). *)
  sigma : Mat.t;
  weights : float array;
}

let build ~fn ?beta0 ~theta ~tau2 ~design ~response ~extra_diag () =
  let n = Array.length design in
  if n < 2 || Array.length response <> n then
    invalid_arg (fn ^ ": needs >= 2 design points and one response per point");
  let sigma =
    Mat.init n n (fun i j ->
        covariance ~theta ~tau2 design.(i) design.(j)
        +. (if i = j then extra_diag.(i) else 0.))
  in
  let solve b =
    match Mat.cholesky_solve sigma b with
    | x -> x
    | exception Failure _ -> Mat.lu_solve sigma b
  in
  let beta0 =
    match beta0 with
    | Some b -> b
    | None ->
      (* GLS intercept: (1ᵀΣ⁻¹y)/(1ᵀΣ⁻¹1). *)
      let ones = Array.make n 1. in
      let si_y = solve response in
      let si_1 = solve ones in
      let num = Array.fold_left ( +. ) 0. si_y in
      let den = Array.fold_left ( +. ) 0. si_1 in
      num /. den
  in
  let centered = Array.map (fun y -> y -. beta0) response in
  let weights = solve centered in
  { design; theta; tau2; beta0; sigma; weights }

let fit ?beta0 ?nugget ~theta ~tau2 ~design ~response () =
  let n = Array.length design in
  let nugget = match nugget with Some v -> v | None -> 1e-10 *. tau2 in
  build ~fn:"Kriging.fit" ?beta0 ~theta ~tau2 ~design ~response ~extra_diag:(Array.make n nugget) ()

let fit_stochastic ?beta0 ~theta ~tau2 ~design ~means ~noise_variances () =
  if Array.length noise_variances <> Array.length design then
    invalid_arg "Kriging.fit_stochastic: needs one noise variance per design point";
  build ~fn:"Kriging.fit_stochastic" ?beta0 ~theta ~tau2 ~design ~response:means
    ~extra_diag:noise_variances ()

let correlations t x =
  Array.map (fun xi -> covariance ~theta:t.theta ~tau2:t.tau2 x xi) t.design

let predict t x =
  let r = correlations t x in
  let acc = ref t.beta0 in
  Array.iteri (fun i ri -> acc := !acc +. (ri *. t.weights.(i))) r;
  !acc

let predict_variance t x =
  let r = correlations t x in
  let si_r =
    match Mat.cholesky_solve t.sigma r with
    | v -> v
    | exception Failure _ -> Mat.lu_solve t.sigma r
  in
  let quad = ref 0. in
  Array.iteri (fun i ri -> quad := !quad +. (ri *. si_r.(i))) r;
  Float.max 0. (t.tau2 -. !quad)

let beta0 t = t.beta0
let theta t = Array.copy t.theta
let tau2 t = t.tau2

let log_likelihood ~theta ~design ~response =
  let n = Array.length design in
  if n < 2 then invalid_arg "Kriging.log_likelihood: needs >= 2 design points";
  let nf = float_of_int n in
  (* Correlation matrix (tau2 = 1) with a small nugget. *)
  let r =
    Mat.init n n (fun i j ->
        covariance ~theta ~tau2:1. design.(i) design.(j)
        +. (if i = j then 1e-10 else 0.))
  in
  match Mat.cholesky r with
  | exception Failure _ -> neg_infinity
  | chol ->
    let log_det = ref 0. in
    for i = 0 to n - 1 do
      log_det := !log_det +. (2. *. log (Mat.get chol i i))
    done;
    let solve b = Mat.cholesky_solve r b in
    let ones = Array.make n 1. in
    let ri_y = solve response and ri_1 = solve ones in
    let beta0 = Array.fold_left ( +. ) 0. ri_y /. Array.fold_left ( +. ) 0. ri_1 in
    let centered = Array.map (fun y -> y -. beta0) response in
    let ri_c = solve centered in
    let quad = ref 0. in
    Array.iteri (fun i c -> quad := !quad +. (c *. ri_c.(i))) centered;
    let sigma2 = Float.max 1e-300 (!quad /. nf) in
    -0.5 *. ((nf *. log sigma2) +. !log_det)

let fit_mle ?(theta_bounds = (1e-3, 1e3)) ~design ~response () =
  let dims = Array.length design.(0) in
  let lo, hi = theta_bounds in
  let log_lo = log lo and log_hi = log hi in
  let objective log_theta =
    let theta = Array.map exp log_theta in
    -.log_likelihood ~theta ~design ~response
  in
  let bounds = Array.make dims (log_lo, log_hi) in
  let x0 = Array.make dims 0. in
  let opt =
    Mde_optimize.Nelder_mead.minimize_box ~max_iter:400 ~bounds ~f:objective ~x0 ()
  in
  let theta = Array.map exp opt.Mde_optimize.Nelder_mead.x in
  (* Recover tau2 as the profiled sigma2 under the chosen theta. *)
  let n = Array.length design in
  let nf = float_of_int n in
  let r =
    Mat.init n n (fun i j ->
        covariance ~theta ~tau2:1. design.(i) design.(j)
        +. (if i = j then 1e-10 else 0.))
  in
  let solve b =
    match Mat.cholesky_solve r b with
    | x -> x
    | exception Failure _ -> Mat.lu_solve r b
  in
  let ones = Array.make n 1. in
  let ri_y = solve response and ri_1 = solve ones in
  let beta0 = Array.fold_left ( +. ) 0. ri_y /. Array.fold_left ( +. ) 0. ri_1 in
  let centered = Array.map (fun y -> y -. beta0) response in
  let ri_c = solve centered in
  let quad = ref 0. in
  Array.iteri (fun i c -> quad := !quad +. (c *. ri_c.(i))) centered;
  let tau2 = Float.max 1e-12 (!quad /. nf) in
  fit ~beta0 ~theta ~tau2 ~design ~response ()
