module Rng = Mde_prob.Rng
module Dist = Mde_prob.Dist

type params = {
  population : int;
  generations : int;
  tournament : int;
  crossover_rate : float;
  mutation_rate : float;
  mutation_scale : float;
  elite : int;
}

let default_params =
  {
    population = 40;
    generations = 30;
    tournament = 3;
    crossover_rate = 0.9;
    mutation_rate = 0.15;
    mutation_scale = 0.1;
    elite = 2;
  }

type result = {
  x : float array;
  f : float;
  evaluations : int;
  best_per_generation : float array;
}

let minimize ?(params = default_params) ~rng ~bounds ~f () =
  let dim = Array.length bounds in
  if dim < 1 || params.population < 4 || params.elite >= params.population then
    invalid_arg "Genetic.minimize: needs a dimension, population >= 4 and elite < population";
  let evals = ref 0 in
  let eval x =
    incr evals;
    f x
  in
  let clamp j v =
    let lo, hi = bounds.(j) in
    Float.max lo (Float.min hi v)
  in
  let random_individual () =
    Array.init dim (fun j ->
        let lo, hi = bounds.(j) in
        Rng.float_range rng lo hi)
  in
  let pop = ref (Array.init params.population (fun _ -> random_individual ())) in
  let fitness = ref (Array.map eval !pop) in
  let best_per_generation = Array.make params.generations infinity in
  let tournament () =
    let best = ref (Rng.int rng params.population) in
    for _ = 2 to params.tournament do
      let c = Rng.int rng params.population in
      if !fitness.(c) < !fitness.(!best) then best := c
    done;
    !pop.(!best)
  in
  for g = 0 to params.generations - 1 do
    (* Elitism: carry over the current best individuals. *)
    let idx = Array.init params.population Fun.id in
    Array.sort (fun a b -> Float.compare !fitness.(a) !fitness.(b)) idx;
    best_per_generation.(g) <- !fitness.(idx.(0));
    let next = Array.make params.population [||] in
    for e = 0 to params.elite - 1 do
      next.(e) <- Array.copy !pop.(idx.(e))
    done;
    for i = params.elite to params.population - 1 do
      let a = tournament () and b = tournament () in
      let child =
        if Rng.bernoulli rng params.crossover_rate then
          (* BLX-0.5 blend crossover. *)
          Array.init dim (fun j ->
              let lo = Float.min a.(j) b.(j) and hi = Float.max a.(j) b.(j) in
              let range = hi -. lo in
              clamp j (Rng.float_range rng (lo -. (0.5 *. range)) (hi +. (0.5 *. range) +. 1e-12)))
        else Array.copy a
      in
      Array.iteri
        (fun j v ->
          if Rng.bernoulli rng params.mutation_rate then begin
            let lo, hi = bounds.(j) in
            let sigma = params.mutation_scale *. (hi -. lo) in
            child.(j) <-
              clamp j (v +. Dist.sample (Dist.Normal { mean = 0.; std = sigma }) rng)
          end)
        child;
      next.(i) <- child
    done;
    pop := next;
    fitness := Array.map eval !pop
  done;
  let best = ref 0 in
  Array.iteri (fun i v -> if v < !fitness.(!best) then best := i) !fitness;
  {
    x = Array.copy !pop.(!best);
    f = !fitness.(!best);
    evaluations = !evals;
    best_per_generation;
  }
