module Mat = Mde_linalg.Mat
module Ols = Mde_linalg.Ols

type model = Linear_trend | Quadratic_trend | Ar of int

type fit = {
  model : model;
  history : Series.t;
  ols : Ols.fit;
  rmse : float;
}

let design_trend degree series =
  let times = Series.times series in
  Mat.init (Array.length times) (degree + 1) (fun i j -> times.(i) ** float_of_int j)

let design_ar p series =
  let values = Series.values series in
  let n = Array.length values - p in
  let x = Mat.init n (p + 1) (fun i j -> if j = 0 then 1. else values.(i + p - j)) in
  let y = Array.init n (fun i -> values.(i + p)) in
  (x, y)

let fit model series =
  let x, y =
    match model with
    | Linear_trend ->
      if Series.length series < 3 then invalid_arg "Forecast.fit: series too short";
      (design_trend 1 series, Series.values series)
    | Quadratic_trend ->
      if Series.length series < 4 then invalid_arg "Forecast.fit: series too short";
      (design_trend 2 series, Series.values series)
    | Ar p ->
      if p < 1 then invalid_arg "Forecast.fit: AR order must be >= 1";
      if Series.length series < (2 * p) + 2 then
        invalid_arg "Forecast.fit: series too short for AR order";
      design_ar p series
  in
  let ols = Ols.fit x y in
  let fitted = Ols.predict_all ols x in
  let rmse = Mde_prob.Stats.root_mean_square_error fitted y in
  { model; history = series; ols; rmse }

let coefficients f = Array.copy f.ols.Ols.coefficients
let in_sample_rmse f = f.rmse

let mean_step series =
  let times = Series.times series in
  let n = Array.length times in
  (* [fit] takes at least 3 observations. *)
  assert (n >= 2);
  (times.(n - 1) -. times.(0)) /. float_of_int (n - 1)

let extrapolate f ~horizon =
  if horizon <= 0 then invalid_arg "Forecast.extrapolate: horizon must be > 0";
  let step = mean_step f.history in
  let last_time = Series.end_time f.history in
  let times = Array.init horizon (fun i -> last_time +. (float_of_int (i + 1) *. step)) in
  let values =
    match f.model with
    | Linear_trend ->
      Array.map (fun t -> Ols.predict f.ols [| 1.; t |]) times
    | Quadratic_trend ->
      Array.map (fun t -> Ols.predict f.ols [| 1.; t; t *. t |]) times
    | Ar p ->
      let history = Series.values f.history in
      let n = Array.length history in
      (* Rolling buffer of the p most recent values (own predictions once
         past the end of the data). *)
      let window = Array.init p (fun k -> history.(n - 1 - k)) in
      Array.init horizon (fun _ ->
          let row = Array.init (p + 1) (fun j -> if j = 0 then 1. else window.(j - 1)) in
          let pred = Ols.predict f.ols row in
          for k = p - 1 downto 1 do
            window.(k) <- window.(k - 1)
          done;
          window.(0) <- pred;
          pred)
  in
  Series.create ~times ~values

let extrapolation_error f ~actual =
  let last_fit_time = Series.end_time f.history in
  let actual_times = Series.times actual and actual_values = Series.values actual in
  let future =
    Array.of_list
      (List.filteri
         (fun i _ -> actual_times.(i) > last_fit_time +. 1e-9)
         (Array.to_list actual_values))
  in
  let horizon = Array.length future in
  if horizon = 0 then invalid_arg "Forecast.extrapolation_error: no held-out points";
  let predicted = Series.values (extrapolate f ~horizon) in
  Mde_prob.Stats.root_mean_square_error predicted future
