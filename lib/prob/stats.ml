let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty sample";
  Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.variance: empty sample";
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)
  end

let std xs = sqrt (variance xs)

let covariance xs ys =
  let n = Array.length xs in
  if n <> Array.length ys || n < 2 then
    invalid_arg "Stats.covariance: samples need equal lengths >= 2";
  let mx = mean xs and my = mean ys in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. ((xs.(i) -. mx) *. (ys.(i) -. my))
  done;
  !acc /. float_of_int (n - 1)

let correlation xs ys =
  let sx = std xs and sy = std ys in
  if sx = 0. || sy = 0. then 0. else covariance xs ys /. (sx *. sy)

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty sample";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let quantile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if not (p >= 0. && p <= 1.) then invalid_arg "Stats.quantile: p outside [0, 1]";
  if n = 1 then sorted.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let i = Float.to_int (floor h) in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((h -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))
  end

let quantile xs p =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  quantile_sorted sorted p

let quantiles xs ps =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  Array.map (quantile_sorted sorted) ps

let median xs = quantile xs 0.5

let autocovariance xs k =
  let n = Array.length xs in
  if k < 0 || k >= n then invalid_arg "Stats.autocovariance: lag outside [0, n)";
  let m = mean xs in
  let acc = ref 0. in
  for i = 0 to n - k - 1 do
    acc := !acc +. ((xs.(i) -. m) *. (xs.(i + k) -. m))
  done;
  !acc /. float_of_int n

let autocorrelation xs k =
  let c0 = autocovariance xs 0 in
  if c0 = 0. then 0. else autocovariance xs k /. c0

let mean_confidence_interval xs level =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.mean_confidence_interval: fewer than 2 samples";
  if not (level > 0. && level < 1.) then
    invalid_arg "Stats.mean_confidence_interval: level outside (0, 1)";
  let m = mean xs in
  let se = std xs /. sqrt (float_of_int n) in
  let z = Special.normal_inv_cdf (1. -. ((1. -. level) /. 2.)) in
  (m -. (z *. se), m +. (z *. se))

type summary = {
  n : int;
  mean : float;
  variance : float;
  min : float;
  max : float;
  q05 : float;
  q25 : float;
  median : float;
  q75 : float;
  q95 : float;
}

let summarize xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let q = quantile_sorted sorted in
  {
    n = Array.length xs;
    mean = mean xs;
    variance = variance xs;
    min = sorted.(0);
    max = sorted.(Array.length sorted - 1);
    q05 = q 0.05;
    q25 = q 0.25;
    median = q 0.5;
    q75 = q 0.75;
    q95 = q 0.95;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.6g sd=%.6g min=%.6g q05=%.6g q25=%.6g med=%.6g q75=%.6g \
     q95=%.6g max=%.6g"
    s.n s.mean (sqrt s.variance) s.min s.q05 s.q25 s.median s.q75 s.q95 s.max

module Online = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let std t = sqrt (variance t)
  let min t = t.min
  let max t = t.max

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
      in
      { n; mean; m2; min = Float.min a.min b.min; max = Float.max a.max b.max }
    end
end

let bootstrap_ci ~rng ~statistic ?(replicates = 1000) xs level =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.bootstrap_ci: fewer than 2 samples";
  if not (level > 0. && level < 1.) then invalid_arg "Stats.bootstrap_ci: level outside (0, 1)";
  if replicates < 10 then invalid_arg "Stats.bootstrap_ci: fewer than 10 replicates";
  let stats =
    Array.init replicates (fun _ ->
        statistic (Array.init n (fun _ -> xs.(Rng.int rng n))))
  in
  let tail = (1. -. level) /. 2. in
  (quantile stats tail, quantile stats (1. -. tail))

let root_mean_square_error xs ys =
  let n = Array.length xs in
  if n <> Array.length ys || n = 0 then
    invalid_arg "Stats.root_mean_square_error: samples need equal non-zero lengths";
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let d = xs.(i) -. ys.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)
