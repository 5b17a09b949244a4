(* Lanczos approximation, g = 7, n = 9 coefficients. *)
let lanczos =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if not (x > 0.) then invalid_arg "Special.log_gamma: x must be > 0";
  if x < 0.5 then
    (* Reflection formula keeps the Lanczos series in its accurate range. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let acc = ref lanczos.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

(* Regularized incomplete gamma: series for x < a+1, continued fraction
   otherwise (Numerical Recipes gser/gcf). *)
let gamma_p_series a x =
  let eps = 1e-15 in
  let ap = ref a in
  let sum = ref (1. /. a) in
  let del = ref !sum in
  let continue_ = ref true in
  let iter = ref 0 in
  while !continue_ && !iter < 1000 do
    incr iter;
    ap := !ap +. 1.;
    del := !del *. x /. !ap;
    sum := !sum +. !del;
    if Float.abs !del < Float.abs !sum *. eps then continue_ := false
  done;
  !sum *. exp ((-.x) +. (a *. log x) -. log_gamma a)

let gamma_q_cf a x =
  let eps = 1e-15 and fpmin = 1e-300 in
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. fpmin) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  let continue_ = ref true in
  let i = ref 1 in
  while !continue_ && !i < 1000 do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.;
    d := (an *. !d) +. !b;
    if Float.abs !d < fpmin then d := fpmin;
    c := !b +. (an /. !c);
    if Float.abs !c < fpmin then c := fpmin;
    d := 1. /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if Float.abs (del -. 1.) < eps then continue_ := false;
    incr i
  done;
  exp ((-.x) +. (a *. log x) -. log_gamma a) *. !h

let gamma_p a x =
  if not (a > 0. && x >= 0.) then invalid_arg "Special.gamma_p: requires a > 0 and x >= 0";
  if x = 0. then 0.
  else if x < a +. 1. then gamma_p_series a x
  else 1. -. gamma_q_cf a x

let gamma_q a x = 1. -. gamma_p a x

let erf x =
  if x >= 0. then gamma_p 0.5 (x *. x) else -.gamma_p 0.5 (x *. x)

let erfc x =
  if x >= 0. then gamma_q 0.5 (x *. x) else 1. +. gamma_p 0.5 (x *. x)

(* Continued fraction for the incomplete beta (Numerical Recipes betacf). *)
let betacf a b x =
  let eps = 1e-15 and fpmin = 1e-300 in
  let qab = a +. b and qap = a +. 1. and qam = a -. 1. in
  let c = ref 1. in
  let d = ref (1. -. (qab *. x /. qap)) in
  if Float.abs !d < fpmin then d := fpmin;
  d := 1. /. !d;
  let h = ref !d in
  let m = ref 1 in
  let continue_ = ref true in
  while !continue_ && !m <= 1000 do
    let mf = float_of_int !m in
    let m2 = 2. *. mf in
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1. +. (aa *. !d);
    if Float.abs !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if Float.abs !c < fpmin then c := fpmin;
    d := 1. /. !d;
    h := !h *. !d *. !c;
    let aa = -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1. +. (aa *. !d);
    if Float.abs !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if Float.abs !c < fpmin then c := fpmin;
    d := 1. /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if Float.abs (del -. 1.) < eps then continue_ := false;
    incr m
  done;
  !h

let beta_inc a b x =
  if not (a > 0. && b > 0. && x >= 0. && x <= 1.) then
    invalid_arg "Special.beta_inc: requires a, b > 0 and x in [0, 1]";
  if x = 0. then 0.
  else if x = 1. then 1.
  else begin
    let log_front =
      log_gamma (a +. b) -. log_gamma a -. log_gamma b
      +. (a *. log x) +. (b *. log (1. -. x))
    in
    let front = exp log_front in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. betacf a b x /. a
    else 1. -. (front *. betacf b a (1. -. x) /. b)
  end

let normal_cdf x = 0.5 *. erfc (-.x /. sqrt 2.)

(* Acklam's inverse normal CDF. *)
let normal_inv_cdf p =
  if not (p > 0. && p < 1.) then invalid_arg "Special.normal_inv_cdf: p outside (0, 1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let rational_tail q =
    (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
    /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.)
  in
  let x =
    if p < p_low then
      let q = sqrt (-2. *. log p) in
      rational_tail q
    else if p <= 1. -. p_low then
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5))
      *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.)
    else
      let q = sqrt (-2. *. log (1. -. p)) in
      -.rational_tail q
  in
  (* One Halley refinement step using the forward CDF. *)
  let e = normal_cdf x -. p in
  let u = e *. sqrt (2. *. Float.pi) *. exp (x *. x /. 2.) in
  x -. (u /. (1. +. (x *. u /. 2.)))

let factorial_table =
  let t = Array.make 171 0. in
  t.(0) <- 0.;
  for n = 1 to 170 do
    t.(n) <- t.(n - 1) +. log (float_of_int n)
  done;
  t

let log_factorial n =
  if n < 0 then invalid_arg "Special.log_factorial: n must be non-negative";
  if n < Array.length factorial_table then factorial_table.(n)
  else log_gamma (float_of_int n +. 1.)

let log_choose n k =
  if k < 0 || k > n then invalid_arg "Special.log_choose: k outside [0, n]";
  log_factorial n -. log_factorial k -. log_factorial (n - k)
