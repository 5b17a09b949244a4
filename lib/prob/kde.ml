type kernel = Gaussian | Laplace | Epanechnikov

let kernel_value k u =
  match k with
  | Gaussian -> exp (-0.5 *. u *. u) /. sqrt (2. *. Float.pi)
  | Laplace -> 0.5 *. exp (-.Float.abs u)
  | Epanechnikov -> if Float.abs u <= 1. then 0.75 *. (1. -. (u *. u)) else 0.

let silverman_bandwidth xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Kde.silverman_bandwidth: empty sample";
  let sd = Stats.std xs in
  let iqr = Stats.quantile xs 0.75 -. Stats.quantile xs 0.25 in
  let spread =
    if sd > 0. && iqr > 0. then Float.min sd (iqr /. 1.34)
    else if sd > 0. then sd
    else if iqr > 0. then iqr /. 1.34
    else 0.
  in
  if spread = 0. then 1.
  else 0.9 *. spread *. (float_of_int n ** (-0.2))

type t = { kernel : kernel; bandwidth : float; samples : float array }

let fit ?(kernel = Gaussian) ?bandwidth samples =
  if Array.length samples = 0 then invalid_arg "Kde.fit: empty sample";
  let bandwidth =
    match bandwidth with
    | Some h ->
      if not (h > 0.) then invalid_arg "Kde.fit: bandwidth must be > 0";
      h
    | None -> silverman_bandwidth samples
  in
  { kernel; bandwidth; samples = Array.copy samples }

let density t x =
  let m = Array.length t.samples in
  let h = t.bandwidth in
  let acc = ref 0. in
  Array.iter (fun xi -> acc := !acc +. kernel_value t.kernel ((x -. xi) /. h)) t.samples;
  !acc /. (float_of_int m *. h)

let log_density t x =
  let d = density t x in
  if d > 0. then log d else neg_infinity

let bandwidth t = t.bandwidth
let sample_count t = Array.length t.samples
