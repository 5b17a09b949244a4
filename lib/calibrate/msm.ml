module Rng = Mde_prob.Rng
module Mat = Mde_linalg.Mat

type regularization = { lambda : float; prior : float array }

type problem = {
  simulate_moments : Rng.t -> float array -> float array;
  observed : float array array;
  bounds : (float * float) array;
  replications : int;
  regularization : regularization option;
}

let observed_mean problem =
  let n = Array.length problem.observed in
  if n = 0 then invalid_arg "Msm.observed_mean: no observed moment samples";
  let m = Array.length problem.observed.(0) in
  let out = Array.make m 0. in
  Array.iter
    (fun row ->
      if Array.length row <> m then
        invalid_arg "Msm.observed_mean: observed rows differ in length";
      Array.iteri (fun j v -> out.(j) <- out.(j) +. (v /. float_of_int n)) row)
    problem.observed;
  out

let weight_matrix ?ridge problem =
  let n = Array.length problem.observed in
  if n < 2 then invalid_arg "Msm.weight_matrix: fewer than 2 observed moment samples";
  let m = Array.length problem.observed.(0) in
  let mean = observed_mean problem in
  (* Covariance of G = Ȳ − m̂(θ): per-sample moment covariance scaled by
     (1/n + 1/R) — the simulation-noise correction of McFadden's MSM
     (m̂ is itself an R-replication average of the same moment vector). *)
  let scale =
    (1. /. float_of_int n) +. (1. /. float_of_int problem.replications)
  in
  let cov =
    Mat.init m m (fun a b ->
        let acc = ref 0. in
        Array.iter
          (fun row -> acc := !acc +. ((row.(a) -. mean.(a)) *. (row.(b) -. mean.(b))))
          problem.observed;
        !acc /. float_of_int (n - 1) *. scale)
  in
  let trace = ref 0. in
  for i = 0 to m - 1 do
    trace := !trace +. Mat.get cov i i
  done;
  let ridge =
    match ridge with Some r -> r | None -> 1e-6 *. Float.max 1e-12 (!trace /. float_of_int m)
  in
  for i = 0 to m - 1 do
    Mat.set cov i i (Mat.get cov i i +. ridge)
  done;
  Mat.inverse cov

let simulated_mean problem rng theta =
  let m_dim = Array.length problem.observed.(0) in
  let out = Array.make m_dim 0. in
  for _ = 1 to problem.replications do
    let sample = problem.simulate_moments rng theta in
    if Array.length sample <> m_dim then
      invalid_arg "Msm.objective: simulate_moments and observed rows differ in length";
    Array.iteri
      (fun j v -> out.(j) <- out.(j) +. (v /. float_of_int problem.replications))
      sample
  done;
  out

let penalty problem theta =
  match problem.regularization with
  | None -> 0.
  | Some { lambda; prior } ->
    if Array.length prior <> Array.length theta then
      invalid_arg "Msm.objective: regularization prior and theta differ in length";
    let acc = ref 0. in
    Array.iteri
      (fun k t ->
        let lo, hi = problem.bounds.(k) in
        let d = (t -. prior.(k)) /. Float.max 1e-12 (hi -. lo) in
        acc := !acc +. (d *. d))
      theta;
    lambda *. !acc

let objective problem rng weight theta =
  let g =
    let y = observed_mean problem and m_hat = simulated_mean problem rng theta in
    Array.mapi (fun j yj -> yj -. m_hat.(j)) y
  in
  let wg = Mat.mul_vec weight g in
  let acc = ref 0. in
  Array.iteri (fun j gj -> acc := !acc +. (gj *. wg.(j))) g;
  !acc +. penalty problem theta

type method_ =
  | Nelder_mead
  | Genetic of Mde_optimize.Genetic.params
  | Random_search of int
  | Kriging_surrogate of { design_points : int; refine : bool }

type result = {
  theta : float array;
  j_value : float;
  simulations : int;
  method_name : string;
}

let calibrate ?(seed = 99) ?weight ?(common_random_numbers = true) problem method_ =
  let rng = Rng.create ~seed () in
  let weight = match weight with Some w -> w | None -> weight_matrix problem in
  let sims = ref 0 in
  let j theta =
    sims := !sims + problem.replications;
    let stream =
      if common_random_numbers then Rng.create ~seed:(seed + 7919) ()
      else Rng.split rng
    in
    objective problem stream weight theta
  in
  (* Optimize in the unit box: parameter ranges often differ by orders of
     magnitude (a switching rate vs a herding strength), which breaks any
     optimizer with a global step size. *)
  let dims = Array.length problem.bounds in
  let to_theta u =
    Array.mapi
      (fun k uk ->
        let lo, hi = problem.bounds.(k) in
        lo +. (uk *. (hi -. lo)))
      u
  in
  let j_unit u = j (to_theta u) in
  let unit_bounds = Array.make dims (0., 1.) in
  let center = Array.make dims 0.5 in
  match method_ with
  | Nelder_mead ->
    (* Multi-start: a handful of random probes seed restarts, since the
       simulated J surface is rugged and a single simplex gets trapped. *)
    let probe_rng = Rng.split rng in
    let probes =
      Array.init 6 (fun _ -> Array.init dims (fun _ -> Rng.float probe_rng))
    in
    let scored = Array.map (fun u -> (j_unit u, u)) probes in
    Array.sort (fun (a, _) (b, _) -> Float.compare a b) scored;
    let starts = [ center; snd scored.(0); snd scored.(1) ] in
    let best = ref None in
    List.iter
      (fun x0 ->
        let opt =
          Mde_optimize.Nelder_mead.minimize_box ~max_iter:80 ~bounds:unit_bounds
            ~f:j_unit ~x0 ()
        in
        match !best with
        | Some (f, _) when f <= opt.Mde_optimize.Nelder_mead.f -> ()
        | Some _ | None ->
          best := Some (opt.Mde_optimize.Nelder_mead.f, opt.Mde_optimize.Nelder_mead.x))
      starts;
    let f, u = Option.get !best in
    {
      theta = to_theta u;
      j_value = f;
      simulations = !sims;
      method_name = "nelder-mead";
    }
  | Genetic params ->
    let opt =
      Mde_optimize.Genetic.minimize ~params ~rng:(Rng.split rng)
        ~bounds:problem.bounds ~f:j ()
    in
    {
      theta = opt.Mde_optimize.Genetic.x;
      j_value = opt.Mde_optimize.Genetic.f;
      simulations = !sims;
      method_name = "genetic";
    }
  | Random_search budget ->
    let opt =
      Mde_optimize.Search.random_search ~rng:(Rng.split rng) ~bounds:problem.bounds
        ~f:j ~evaluations:budget
    in
    {
      theta = opt.Mde_optimize.Search.x;
      j_value = opt.Mde_optimize.Search.f;
      simulations = !sims;
      method_name = "random-search";
    }
  | Kriging_surrogate { design_points; refine } ->
    if design_points < 4 then
      invalid_arg "Msm.calibrate: Kriging_surrogate needs design_points >= 4";
    (* DOE: a nearly orthogonal LH over the unit box (Salle-Yildizoglu). *)
    let coded =
      Mde_metamodel.Design.nearly_orthogonal_lh ~rng:(Rng.split rng) ~factors:dims
        ~levels:design_points ~tries:50
    in
    let design = Mde_metamodel.Design.scale coded ~ranges:unit_bounds in
    let response = Array.map j_unit design in
    let surrogate = Mde_metamodel.Kriging.fit_mle ~design ~response () in
    (* Minimize the metamodel (cheap) by multi-start Nelder-Mead from the
       best design points. *)
    let order = Array.init (Array.length response) Fun.id in
    Array.sort (fun a b -> Float.compare response.(a) response.(b)) order;
    let best = ref design.(order.(0)) in
    let best_val = ref (Mde_metamodel.Kriging.predict surrogate !best) in
    for s = 0 to Stdlib.min 2 (Array.length order - 1) do
      let opt =
        Mde_optimize.Nelder_mead.minimize_box ~max_iter:300 ~bounds:unit_bounds
          ~f:(Mde_metamodel.Kriging.predict surrogate)
          ~x0:design.(order.(s)) ()
      in
      if opt.Mde_optimize.Nelder_mead.f < !best_val then begin
        best := opt.Mde_optimize.Nelder_mead.x;
        best_val := opt.Mde_optimize.Nelder_mead.f
      end
    done;
    let u, j_value =
      if refine then begin
        let opt =
          Mde_optimize.Nelder_mead.minimize_box ~max_iter:60 ~bounds:unit_bounds
            ~f:j_unit ~x0:!best ()
        in
        (opt.Mde_optimize.Nelder_mead.x, opt.Mde_optimize.Nelder_mead.f)
      end
      else (!best, j_unit !best)
    in
    { theta = to_theta u; j_value; simulations = !sims; method_name = "kriging-surrogate" }
