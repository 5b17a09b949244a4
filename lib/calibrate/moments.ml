let exponential xs =
  let mean = Mde_prob.Stats.mean xs in
  if not (mean > 0.) then invalid_arg "Moments.exponential: sample mean must be > 0";
  1. /. mean

let normal xs = (Mde_prob.Stats.mean xs, Mde_prob.Stats.std xs)

type result = { theta : float array; distance : float; evaluations : int }

let solve ~population_moments ~observed_moments ~bounds ~x0 =
  let m = Array.length observed_moments in
  let objective theta =
    let predicted = population_moments theta in
    if Array.length predicted <> m then
      invalid_arg "Moments.solve: population_moments and observed_moments differ in length";
    let acc = ref 0. in
    for i = 0 to m - 1 do
      let d = predicted.(i) -. observed_moments.(i) in
      acc := !acc +. (d *. d)
    done;
    !acc
  in
  let opt = Mde_optimize.Nelder_mead.minimize_box ~bounds ~f:objective ~x0 () in
  {
    theta = opt.Mde_optimize.Nelder_mead.x;
    distance = opt.Mde_optimize.Nelder_mead.f;
    evaluations = opt.Mde_optimize.Nelder_mead.evaluations;
  }

let sample_moments ~orders xs =
  if Array.length xs = 0 then invalid_arg "Moments.sample_moments: empty sample";
  if List.exists (fun k -> k < 1) orders then
    invalid_arg "Moments.sample_moments: orders must be >= 1";
  let n = float_of_int (Array.length xs) in
  Array.of_list
    (List.map
       (fun k ->
         Array.fold_left (fun acc x -> acc +. (x ** float_of_int k)) 0. xs /. n)
       orders)
