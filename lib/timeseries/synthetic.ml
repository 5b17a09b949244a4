module Rng = Mde_prob.Rng
module Dist = Mde_prob.Dist

let housing_index ?(seed = 19) ?(start_year = 1970.) ?(bust_year = 2006.)
    ?(end_year = 2011.) () =
  if not (start_year < bust_year && bust_year < end_year) then
    invalid_arg "Synthetic.housing_index: years must satisfy start < bust < end";
  let rng = Rng.create ~seed () in
  let months =
    Float.to_int (Float.round ((end_year -. start_year) *. 12.)) + 1
  in
  let times = Array.init months (fun i -> start_year +. (float_of_int i /. 12.)) in
  let boom_start = bust_year -. 6. in
  let values = Array.make months 0. in
  let level = ref 100. in
  Array.iteri
    (fun i t ->
      let drift =
        if t < boom_start then 0.0025 (* ~3 %/yr background appreciation *)
        else if t < bust_year then
          (* Accelerating boom: drift ramps up to ~15 %/yr at the peak. *)
          0.0025 +. (0.010 *. (t -. boom_start) /. (bust_year -. boom_start))
        else -0.012 (* collapse: ≈ −13 %/yr *)
      in
      let shock = Dist.sample (Dist.Normal { mean = 0.; std = 0.003 }) rng in
      level := !level *. exp (drift +. shock);
      values.(i) <- !level)
    times;
  Series.create ~times ~values

let smooth_signal ?(seed = 7) ~knots ~span () =
  if not (knots >= 2 && span > 0.) then
    invalid_arg "Synthetic.smooth_signal: needs knots >= 2 and span > 0";
  let rng = Rng.create ~seed () in
  let n_waves = 4 in
  let amps = Array.init n_waves (fun _ -> Rng.float_range rng 0.3 1.2) in
  let freqs = Array.init n_waves (fun _ -> Rng.float_range rng 0.5 3.0) in
  let phases = Array.init n_waves (fun _ -> Rng.float_range rng 0. (2. *. Float.pi)) in
  let a = Rng.float_range rng (-1.) 1. and b = Rng.float_range rng (-0.5) 0.5 in
  let f t =
    let x = t /. span in
    let acc = ref ((a *. x) +. (b *. x *. x)) in
    for k = 0 to n_waves - 1 do
      acc := !acc +. (amps.(k) *. sin ((2. *. Float.pi *. freqs.(k) *. x) +. phases.(k)))
    done;
    !acc
  in
  let times = Array.init knots (fun i -> span *. float_of_int i /. float_of_int (knots - 1)) in
  Series.create ~times ~values:(Array.map f times)

let noisy_observations ?(seed = 23) ~f ~noise times =
  let rng = Rng.create ~seed () in
  let values =
    Array.map (fun t -> f t +. Dist.sample (Dist.Normal { mean = 0.; std = noise }) rng) times
  in
  Series.create ~times ~values
