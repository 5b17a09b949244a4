type t =
  | Uniform of float * float
  | Normal of { mean : float; std : float }
  | Lognormal of { mu : float; sigma : float }
  | Exponential of { rate : float }
  | Gamma of { shape : float; scale : float }
  | Beta of { alpha : float; beta : float }
  | Triangular of { lo : float; mode : float; hi : float }
  | Weibull of { shape : float; scale : float }

let sqrt_two_pi = sqrt (2. *. Float.pi)

(* Marsaglia polar method: draw points in the square until one falls
   inside the unit disc (excluding the origin), then return
   [mean + std * z] for the standard normal z. A top-level loop, so a
   draw builds no closure; scaling inside it returns the sample in one
   box. *)
let rec normal rng mean std =
  let u = Rng.float_range rng (-1.) 1. in
  let v = Rng.float_range rng (-1.) 1. in
  let s = (u *. u) +. (v *. v) in
  if s >= 1. || s = 0. then normal rng mean std
  else mean +. (std *. (u *. sqrt (-2. *. log s /. s)))

(* [0 + 1 * z] is exactly [z]: the polar method never yields [-0.]. *)
let standard_normal rng = normal rng 0. 1.

(* Marsaglia-Tsang rejection for shape >= 1, with d = shape - 1/3 and
   c = 1 / sqrt (9 d). *)
let rec marsaglia_tsang rng d c =
  let x = standard_normal rng in
  let v = 1. +. (c *. x) in
  if v <= 0. then marsaglia_tsang rng d c
  else begin
    let v = v *. v *. v in
    let u = Rng.float_pos rng in
    let x2 = x *. x in
    if u < 1. -. (0.0331 *. x2 *. x2) then d *. v
    else if log u < (0.5 *. x2) +. (d *. (1. -. v +. log v)) then d *. v
    else marsaglia_tsang rng d c
  end

(* Marsaglia-Tsang for shape >= 1; boost via U^(1/shape) below 1. *)
let rec gamma_sample rng shape scale =
  if shape < 1. then
    let u = Rng.float_pos rng in
    gamma_sample rng (shape +. 1.) scale *. (u ** (1. /. shape))
  else begin
    let d = shape -. (1. /. 3.) in
    scale *. marsaglia_tsang rng d (1. /. sqrt (9. *. d))
  end

let sample d rng =
  match d with
  | Uniform (lo, hi) -> Rng.float_range rng lo hi
  | Normal { mean; std } -> normal rng mean std
  | Lognormal { mu; sigma } -> exp (normal rng mu sigma)
  | Exponential { rate } -> -.log (Rng.float_pos rng) /. rate
  | Gamma { shape; scale } -> gamma_sample rng shape scale
  | Beta { alpha; beta } ->
    let x = gamma_sample rng alpha 1. in
    let y = gamma_sample rng beta 1. in
    x /. (x +. y)
  | Triangular { lo; mode; hi } ->
    let u = Rng.float rng in
    let fc = (mode -. lo) /. (hi -. lo) in
    if u < fc then lo +. sqrt (u *. (hi -. lo) *. (mode -. lo))
    else hi -. sqrt ((1. -. u) *. (hi -. lo) *. (hi -. mode))
  | Weibull { shape; scale } ->
    scale *. ((-.log (Rng.float_pos rng)) ** (1. /. shape))

let pdf d x =
  match d with
  | Uniform (lo, hi) -> if x >= lo && x < hi then 1. /. (hi -. lo) else 0.
  | Normal { mean; std } ->
    let z = (x -. mean) /. std in
    exp (-0.5 *. z *. z) /. (std *. sqrt_two_pi)
  | Lognormal { mu; sigma } ->
    if x <= 0. then 0.
    else begin
      let z = (log x -. mu) /. sigma in
      exp (-0.5 *. z *. z) /. (x *. sigma *. sqrt_two_pi)
    end
  | Exponential { rate } -> if x < 0. then 0. else rate *. exp (-.rate *. x)
  | Gamma { shape; scale } ->
    if x < 0. then 0.
    else if x = 0. then (if shape < 1. then infinity else if shape = 1. then 1. /. scale else 0.)
    else
      exp
        (((shape -. 1.) *. log (x /. scale)) -. (x /. scale)
        -. Special.log_gamma shape)
      /. scale
  | Beta { alpha; beta } ->
    if x < 0. || x > 1. then 0.
    else if (x = 0. && alpha < 1.) || (x = 1. && beta < 1.) then infinity
    else
      exp
        (((alpha -. 1.) *. log (max x 1e-300))
        +. ((beta -. 1.) *. log (max (1. -. x) 1e-300))
        +. Special.log_gamma (alpha +. beta)
        -. Special.log_gamma alpha -. Special.log_gamma beta)
  | Triangular { lo; mode; hi } ->
    if x < lo || x > hi then 0.
    else if x < mode then 2. *. (x -. lo) /. ((hi -. lo) *. (mode -. lo))
    else if x > mode then 2. *. (hi -. x) /. ((hi -. lo) *. (hi -. mode))
    else 2. /. (hi -. lo)
  | Weibull { shape; scale } ->
    if x < 0. then 0.
    else begin
      let z = x /. scale in
      shape /. scale *. (z ** (shape -. 1.)) *. exp (-.(z ** shape))
    end

let log_pdf d x =
  let p = pdf d x in
  if p > 0. then log p else neg_infinity

let cdf d x =
  match d with
  | Uniform (lo, hi) ->
    if x < lo then 0. else if x >= hi then 1. else (x -. lo) /. (hi -. lo)
  | Normal { mean; std } -> Special.normal_cdf ((x -. mean) /. std)
  | Lognormal { mu; sigma } ->
    if x <= 0. then 0. else Special.normal_cdf ((log x -. mu) /. sigma)
  | Exponential { rate } -> if x < 0. then 0. else 1. -. exp (-.rate *. x)
  | Gamma { shape; scale } -> if x <= 0. then 0. else Special.gamma_p shape (x /. scale)
  | Beta { alpha; beta } ->
    if x <= 0. then 0. else if x >= 1. then 1. else Special.beta_inc alpha beta x
  | Triangular { lo; mode; hi } ->
    if x <= lo then 0.
    else if x >= hi then 1.
    else if x <= mode then (x -. lo) *. (x -. lo) /. ((hi -. lo) *. (mode -. lo))
    else 1. -. ((hi -. x) *. (hi -. x) /. ((hi -. lo) *. (hi -. mode)))
  | Weibull { shape; scale } ->
    if x <= 0. then 0. else 1. -. exp (-.((x /. scale) ** shape))

let support = function
  | Uniform (lo, hi) -> (lo, hi)
  | Normal _ -> (neg_infinity, infinity)
  | Lognormal _ | Exponential _ | Gamma _ | Weibull _ -> (0., infinity)
  | Beta _ -> (0., 1.)
  | Triangular { lo; hi; _ } -> (lo, hi)

let quantile d p =
  if not (p > 0. && p < 1.) then invalid_arg "Dist.quantile: p outside (0, 1)";
  match d with
  | Uniform (lo, hi) -> lo +. (p *. (hi -. lo))
  | Normal { mean; std } -> mean +. (std *. Special.normal_inv_cdf p)
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. Special.normal_inv_cdf p))
  | Exponential { rate } -> -.log (1. -. p) /. rate
  | Weibull { shape; scale } -> scale *. ((-.log (1. -. p)) ** (1. /. shape))
  | Triangular { lo; mode; hi } ->
    let fc = (mode -. lo) /. (hi -. lo) in
    if p < fc then lo +. sqrt (p *. (hi -. lo) *. (mode -. lo))
    else hi -. sqrt ((1. -. p) *. (hi -. lo) *. (hi -. mode))
  | Gamma _ | Beta _ ->
    (* Bisection on the CDF over a bracket grown from the mean. *)
    let lo0, hi0 = support d in
    let lo = ref (max lo0 1e-300) in
    let hi = ref (if hi0 = infinity then 1. else hi0) in
    while cdf d !hi < p && !hi < 1e300 do
      hi := !hi *. 2.
    done;
    for _ = 1 to 200 do
      let mid = 0.5 *. (!lo +. !hi) in
      if cdf d mid < p then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)

let mean = function
  | Uniform (lo, hi) -> 0.5 *. (lo +. hi)
  | Normal { mean; _ } -> mean
  | Lognormal { mu; sigma } -> exp (mu +. (0.5 *. sigma *. sigma))
  | Exponential { rate } -> 1. /. rate
  | Gamma { shape; scale } -> shape *. scale
  | Beta { alpha; beta } -> alpha /. (alpha +. beta)
  | Triangular { lo; mode; hi } -> (lo +. mode +. hi) /. 3.
  | Weibull { shape; scale } ->
    scale *. exp (Special.log_gamma (1. +. (1. /. shape)))

let variance = function
  | Uniform (lo, hi) -> (hi -. lo) *. (hi -. lo) /. 12.
  | Normal { std; _ } -> std *. std
  | Lognormal { mu; sigma } ->
    let s2 = sigma *. sigma in
    (exp s2 -. 1.) *. exp ((2. *. mu) +. s2)
  | Exponential { rate } -> 1. /. (rate *. rate)
  | Gamma { shape; scale } -> shape *. scale *. scale
  | Beta { alpha; beta } ->
    let s = alpha +. beta in
    alpha *. beta /. (s *. s *. (s +. 1.))
  | Triangular { lo; mode; hi } ->
    ((lo *. lo) +. (mode *. mode) +. (hi *. hi) -. (lo *. mode) -. (lo *. hi)
    -. (mode *. hi))
    /. 18.
  | Weibull { shape; scale } ->
    let g1 = exp (Special.log_gamma (1. +. (1. /. shape))) in
    let g2 = exp (Special.log_gamma (1. +. (2. /. shape))) in
    scale *. scale *. (g2 -. (g1 *. g1))

let std d = sqrt (variance d)

let sample_n d rng n = Array.init n (fun _ -> sample d rng)

type discrete =
  | Bernoulli of float
  | Binomial of { n : int; p : float }
  | Poisson of float
  | Geometric of float
  | Discrete_uniform of int * int
  | Categorical of float array

let poisson_sample rng lambda =
  if lambda < 30. then begin
    (* Knuth: multiply uniforms until the product drops below e^-lambda. *)
    let limit = exp (-.lambda) in
    let rec go k prod =
      let prod = prod *. Rng.float_pos rng in
      if prod <= limit then k else go (k + 1) prod
    in
    go 0 1.
  end
  else begin
    (* Hörmann's PTRS transformed rejection for large lambda. *)
    let b = 0.931 +. (2.53 *. sqrt lambda) in
    let a = -0.059 +. (0.02483 *. b) in
    let inv_alpha = 1.1239 +. (1.1328 /. (b -. 3.4)) in
    let vr = 0.9277 -. (3.6224 /. (b -. 2.)) in
    let rec draw () =
      let u = Rng.float rng -. 0.5 in
      let v = Rng.float_pos rng in
      let us = 0.5 -. Float.abs u in
      let k = Float.to_int (floor (((2. *. a /. us) +. b) *. u +. lambda +. 0.43)) in
      if us >= 0.07 && v <= vr then k
      else if k < 0 || (us < 0.013 && v > us) then draw ()
      else begin
        let log_v = log (v *. inv_alpha /. ((a /. (us *. us)) +. b)) in
        let accept =
          log_v
          <= (float_of_int k *. log lambda) -. lambda -. Special.log_factorial k
        in
        if accept then k else draw ()
      end
    in
    draw ()
  end

let binomial_sample rng n p =
  if p = 0. then 0
  else if p = 1. then n
  else if n <= 64 then begin
    let count = ref 0 in
    for _ = 1 to n do
      if Rng.bernoulli rng p then incr count
    done;
    !count
  end
  else begin
    (* Inversion from the mode with stable pmf recurrence; expected work
       O(sqrt(n p q)), adequate for the simulation workloads here. *)
    let q = 1. -. p in
    let u = ref (Rng.float rng) in
    let mode = Float.to_int (floor (float_of_int (n + 1) *. p)) in
    let log_pmf k =
      Special.log_choose n k
      +. (float_of_int k *. log p)
      +. (float_of_int (n - k) *. log q)
    in
    let pm = exp (log_pmf mode) in
    (* Walk outward from the mode, alternately down and up. *)
    let lo = ref mode and hi = ref mode in
    let p_lo = ref pm and p_hi = ref pm in
    u := !u -. pm;
    let result = ref (-1) in
    while !result < 0 do
      if !lo > 0 then begin
        (* pmf(k-1) = pmf(k) * k*q / ((n-k+1)*p) *)
        p_lo :=
          !p_lo *. float_of_int !lo *. q /. (float_of_int (n - !lo + 1) *. p);
        decr lo;
        u := !u -. !p_lo;
        if !u <= 0. then result := !lo
      end;
      if !result < 0 && !hi < n then begin
        p_hi :=
          !p_hi *. float_of_int (n - !hi) *. p /. (float_of_int (!hi + 1) *. q);
        incr hi;
        u := !u -. !p_hi;
        if !u <= 0. then result := !hi
      end;
      if !result < 0 && !lo = 0 && !hi = n then result := mode
    done;
    !result
  end

let categorical_cumulative weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Dist.categorical_cumulative: no weights";
  let total = Array.fold_left ( +. ) 0. weights in
  if not (total > 0.) then invalid_arg "Dist.categorical_cumulative: weights must sum to > 0";
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    if not (weights.(i) >= 0.) then
      invalid_arg "Dist.categorical_cumulative: negative weight";
    acc := !acc +. (weights.(i) /. total);
    cum.(i) <- !acc
  done;
  cum.(n - 1) <- 1.;
  cum

let sample_cumulative cum rng =
  let u = Rng.float rng in
  (* Binary search for the first index with cum.(i) > u. *)
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let sample_discrete d rng =
  match d with
  | Bernoulli p -> if Rng.bernoulli rng p then 1 else 0
  | Binomial { n; p } -> binomial_sample rng n p
  | Poisson lambda -> poisson_sample rng lambda
  | Geometric p ->
    if not (p > 0. && p <= 1.) then invalid_arg "Dist.sample_discrete: Geometric p outside (0, 1]";
    if p = 1. then 0
    else Float.to_int (floor (log (Rng.float_pos rng) /. log (1. -. p)))
  | Discrete_uniform (lo, hi) ->
    if hi < lo then invalid_arg "Dist.sample_discrete: Discrete_uniform needs lo <= hi";
    lo + Rng.int rng (hi - lo + 1)
  | Categorical weights -> sample_cumulative (categorical_cumulative weights) rng

let pmf d k =
  match d with
  | Bernoulli p -> if k = 1 then p else if k = 0 then 1. -. p else 0.
  | Binomial { n; p } ->
    if k < 0 || k > n then 0.
    else if p = 0. then (if k = 0 then 1. else 0.)
    else if p = 1. then (if k = n then 1. else 0.)
    else
      exp
        (Special.log_choose n k
        +. (float_of_int k *. log p)
        +. (float_of_int (n - k) *. log (1. -. p)))
  | Poisson lambda ->
    if k < 0 then 0.
    else exp ((float_of_int k *. log lambda) -. lambda -. Special.log_factorial k)
  | Geometric p ->
    if k < 0 then 0. else p *. ((1. -. p) ** float_of_int k)
  | Discrete_uniform (lo, hi) ->
    if k >= lo && k <= hi then 1. /. float_of_int (hi - lo + 1) else 0.
  | Categorical weights ->
    if k < 0 || k >= Array.length weights then 0.
    else begin
      let total = Array.fold_left ( +. ) 0. weights in
      weights.(k) /. total
    end

let log_pmf d k =
  let p = pmf d k in
  if p > 0. then log p else neg_infinity

let mean_discrete = function
  | Bernoulli p -> p
  | Binomial { n; p } -> float_of_int n *. p
  | Poisson lambda -> lambda
  | Geometric p -> (1. -. p) /. p
  | Discrete_uniform (lo, hi) -> 0.5 *. float_of_int (lo + hi)
  | Categorical weights ->
    let total = Array.fold_left ( +. ) 0. weights in
    let acc = ref 0. in
    Array.iteri (fun i w -> acc := !acc +. (float_of_int i *. w /. total)) weights;
    !acc

let variance_discrete = function
  | Bernoulli p -> p *. (1. -. p)
  | Binomial { n; p } -> float_of_int n *. p *. (1. -. p)
  | Poisson lambda -> lambda
  | Geometric p -> (1. -. p) /. (p *. p)
  | Discrete_uniform (lo, hi) ->
    let n = float_of_int (hi - lo + 1) in
    ((n *. n) -. 1.) /. 12.
  | Categorical weights as d ->
    let m = mean_discrete d in
    let total = Array.fold_left ( +. ) 0. weights in
    let acc = ref 0. in
    Array.iteri
      (fun i w ->
        let x = float_of_int i -. m in
        acc := !acc +. (x *. x *. w /. total))
      weights;
    !acc

let sample_discrete_n d rng n =
  match d with
  | Categorical weights ->
    (* Precompute the cumulative table once for the whole batch. *)
    let cum = categorical_cumulative weights in
    Array.init n (fun _ -> sample_cumulative cum rng)
  | Bernoulli _ | Binomial _ | Poisson _ | Geometric _ | Discrete_uniform _ ->
    Array.init n (fun _ -> sample_discrete d rng)
