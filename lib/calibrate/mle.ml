let exponential xs =
  if Array.length xs = 0 then invalid_arg "Mle.exponential: empty sample";
  if Array.exists (fun x -> not (x >= 0.)) xs then
    invalid_arg "Mle.exponential: observations must be >= 0";
  let mean = Mde_prob.Stats.mean xs in
  if not (mean > 0.) then invalid_arg "Mle.exponential: sample mean must be > 0";
  1. /. mean

let normal xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Mle.normal: empty sample";
  let mu = Mde_prob.Stats.mean xs in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.)) 0. xs /. float_of_int n
  in
  (mu, sqrt var)

let poisson ks =
  if Array.length ks = 0 then invalid_arg "Mle.poisson: empty sample";
  Mde_prob.Stats.mean (Array.map float_of_int ks)

type numeric_result = {
  theta : float array;
  log_likelihood : float;
  evaluations : int;
}

let numeric ~log_density ~bounds ~x0 data =
  if Array.length data = 0 then invalid_arg "Mle.numeric: empty sample";
  let objective theta =
    let acc = ref 0. in
    Array.iter (fun x -> acc := !acc +. log_density ~theta x) data;
    (* Minimize the negative log-likelihood; guard against NaN from
       boundary evaluations. *)
    if Float.is_nan !acc then infinity else -. !acc
  in
  let opt = Mde_optimize.Nelder_mead.minimize_box ~bounds ~f:objective ~x0 () in
  {
    theta = opt.Mde_optimize.Nelder_mead.x;
    log_likelihood = -.opt.Mde_optimize.Nelder_mead.f;
    evaluations = opt.Mde_optimize.Nelder_mead.evaluations;
  }
