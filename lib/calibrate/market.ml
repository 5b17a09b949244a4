module Rng = Mde_prob.Rng
module Dist = Mde_prob.Dist

type params = { n_agents : int; a : float; b : float; noise : float }

let simulate_returns rng params ~steps ~burn_in =
  if not (params.n_agents >= 2 && steps > 0 && burn_in >= 0) then
    invalid_arg
      "Market.simulate_returns: needs n_agents >= 2, steps > 0 and burn_in >= 0";
  if not (params.a >= 0. && params.b >= 0. && params.noise >= 0.) then
    invalid_arg "Market.simulate_returns: a, b and noise must be >= 0";
  let n = params.n_agents in
  (* optimists: number of agents in the + state. *)
  let optimists = ref (n / 2) in
  let mood_of n_opt = (2. *. float_of_int n_opt /. float_of_int n) -. 1. in
  let step_market () =
    let n_opt = !optimists in
    let n_pes = n - n_opt in
    let frac_opt = float_of_int n_opt /. float_of_int n in
    let frac_pes = 1. -. frac_opt in
    (* Kirman-style recruitment: each pessimist flips with prob
       a + b·frac_opt, each optimist with a + b·frac_pes. With small a the
       mood distribution is bimodal and flips between regimes in bursts.
       Binomial draws keep the update O(1) in the agent count. *)
    let p_to_opt = Float.min 1. (params.a +. (params.b *. frac_opt)) in
    let p_to_pes = Float.min 1. (params.a +. (params.b *. frac_pes)) in
    let gain = Dist.sample_discrete (Dist.Binomial { n = n_pes; p = p_to_opt }) rng in
    let loss = Dist.sample_discrete (Dist.Binomial { n = n_opt; p = p_to_pes }) rng in
    let prev_mood = mood_of n_opt in
    optimists := Stdlib.max 0 (Stdlib.min n (n_opt + gain - loss));
    (* Returns respond to sentiment *changes*: regime flips produce the
       volatility bursts herding is known for. *)
    let news = Dist.sample (Dist.Normal { mean = 0.; std = params.noise }) rng in
    (0.1 *. (mood_of !optimists -. prev_mood)) +. news
  in
  for _ = 1 to burn_in do
    ignore (step_market ())
  done;
  Array.init steps (fun _ -> step_market ())

let moments returns =
  let n = Array.length returns in
  if n < 3 then invalid_arg "Market.moments: fewer than 3 returns";
  let mean = Mde_prob.Stats.mean returns in
  let centered = Array.map (fun r -> r -. mean) returns in
  let var = Array.fold_left (fun acc c -> acc +. (c *. c)) 0. centered /. float_of_int n in
  let m4 =
    Array.fold_left (fun acc c -> acc +. (c ** 4.)) 0. centered /. float_of_int n
  in
  let kurtosis = if var > 0. then m4 /. (var *. var) else 3. in
  let abs_returns = Array.map Float.abs returns in
  let acf1 = Mde_prob.Stats.autocorrelation abs_returns 1 in
  [| var; kurtosis; acf1 |]

let simulate_moments ~steps ~burn_in ~n_agents ~noise rng theta =
  if Array.length theta <> 2 then
    invalid_arg "Market.simulate_moments: theta must be [a; b]";
  let params = { n_agents; a = Float.max 0. theta.(0); b = Float.max 0. theta.(1); noise } in
  moments (simulate_returns rng params ~steps ~burn_in)
