module Rng = Mde_prob.Rng

type statistics = { c1 : float; c2 : float; v1 : float; v2 : float }

let check_alpha alpha =
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg (Printf.sprintf "Result_cache: alpha=%g outside (0, 1]" alpha)

let g { c1; c2; v1; v2 } alpha =
  check_alpha alpha;
  let r = floor (1. /. alpha) in
  ((alpha *. c1) +. c2)
  *. (v1 +. (((2. *. r) -. (alpha *. r *. (r +. 1.))) *. v2))

let g_approx { c1; c2; v1; v2 } alpha =
  check_alpha alpha;
  ((alpha *. c1) +. c2) *. (v1 +. (((1. /. alpha) -. 1.) *. v2))

let alpha_star { c1; c2; v1; v2 } =
  if not (c1 > 0. && c2 > 0. && v1 >= 0. && v2 >= 0.) then
    invalid_arg "Result_cache.alpha_star: costs must be > 0 and variances >= 0";
  if v2 <= 0. then 0.
  else if v2 >= v1 then 1.
  else begin
    let a = sqrt (c2 /. c1 /. ((v1 /. v2) -. 1.)) in
    Float.min 1. a
  end

let efficiency_gain stats =
  (* alpha* minimizes the smooth approximation; with the exact floor-based
     r_alpha, alpha = 1 can still be (slightly) better near the
     transformer limit, and a planner would then simply not cache — so
     the achievable gain is never below 1. *)
  let best = Float.max 1e-6 (Float.min 1. (alpha_star stats)) in
  g stats 1. /. Float.min (g stats best) (g stats 1.)

let query_fingerprint ~model ~n ~alpha ~seed =
  Printf.sprintf "rc{model=%s;n=%d;alpha=%.17g;seed=%d}" model n alpha seed

type 'a two_stage = {
  model1 : Rng.t -> 'a;
  model2 : Rng.t -> 'a -> float;
}

type estimate = { theta_hat : float; n : int; m : int; alpha : float }

let estimate two_stage rng ~n ~alpha =
  check_alpha alpha;
  if n < 1 then invalid_arg "Result_cache.estimate: n must be >= 1";
  let m = Stdlib.max 1 (Float.to_int (ceil (alpha *. float_of_int n))) in
  let cache = Array.init m (fun _ -> two_stage.model1 rng) in
  let total = ref 0. in
  for i = 0 to n - 1 do
    (* Deterministic cycling gives the stratified sample of M1 outputs. *)
    total := !total +. two_stage.model2 rng cache.(i mod m)
  done;
  { theta_hat = !total /. float_of_int n; n; m; alpha }

let estimate_under_budget two_stage rng ~budget ~alpha ~stats =
  check_alpha alpha;
  let cost n =
    let m = Float.to_int (ceil (alpha *. float_of_int n)) in
    (float_of_int m *. stats.c1) +. (float_of_int n *. stats.c2)
  in
  if cost 1 > budget then
    invalid_arg "Result_cache.estimate_under_budget: budget below one replication";
  (* N(c) = sup{n : C_n <= c}; C_n is nondecreasing, so binary search. *)
  let lo = ref 1 and hi = ref 1 in
  while cost (!hi * 2) <= budget do
    hi := !hi * 2
  done;
  hi := !hi * 2;
  while !lo < !hi - 1 do
    let mid = (!lo + !hi) / 2 in
    if cost mid <= budget then lo := mid else hi := mid
  done;
  estimate two_stage rng ~n:!lo ~alpha

type pilot = {
  statistics : statistics;
  inputs_sampled : int;
  outputs_per_input : int;
}

let pilot ?pool two_stage rng ~inputs ~outputs_per_input =
  if inputs < 2 || outputs_per_input < 2 then
    invalid_arg "Result_cache.pilot: inputs and outputs_per_input must be >= 2";
  let k = inputs and r = outputs_per_input in
  (* Each pilot input owns a split stream (its M1 draw and its M2 draws
     run on it in a fixed order), so the y matrix — and hence V1/V2 — is
     bit-identical whether inputs run sequentially or across the pool.
     The measured costs c1/c2 are wall-clock-dependent either way. *)
  let streams = Rng.split_n rng k in
  let sampled =
    Mde_par.Pool.init ?pool ~site:"composite.pilot" k (fun i ->
        let s = streams.(i) in
        let start = Sys.time () in
        let y1 = two_stage.model1 s in
        let t1 = Sys.time () -. start in
        let start = Sys.time () in
        let row = Array.make r 0. in
        for j = 0 to r - 1 do
          row.(j) <- two_stage.model2 s y1
        done;
        let t2 = Sys.time () -. start in
        (row, t1, t2))
  in
  let y = Array.map (fun (row, _, _) -> row) sampled in
  let t1 = ref 0. and t2 = ref 0. in
  Array.iter
    (fun (_, d1, d2) ->
      t1 := !t1 +. d1;
      t2 := !t2 +. d2)
    sampled;
  let kf = float_of_int k and rf = float_of_int r in
  let grand = Array.fold_left (fun acc row -> acc +. Array.fold_left ( +. ) 0. row) 0. y
              /. (kf *. rf)
  in
  let group_means = Array.map (fun row -> Array.fold_left ( +. ) 0. row /. rf) y in
  (* One-way ANOVA: E[MSB] = r·V2 + (V1 − V2); E[MSW] = V1 − V2, where V2
     is the shared-input covariance and V1 the total output variance. *)
  let ssb =
    rf
    *. Array.fold_left (fun acc m -> acc +. ((m -. grand) ** 2.)) 0. group_means
  in
  let msb = ssb /. (kf -. 1.) in
  let ssw = ref 0. in
  for i = 0 to k - 1 do
    for j = 0 to r - 1 do
      ssw := !ssw +. ((y.(i).(j) -. group_means.(i)) ** 2.)
    done
  done;
  let msw = !ssw /. (kf *. (rf -. 1.)) in
  let v2 = Float.max 0. ((msb -. msw) /. rf) in
  let v1 = v2 +. msw in
  {
    statistics =
      {
        c1 = Float.max 1e-9 (!t1 /. kf);
        c2 = Float.max 1e-9 (!t2 /. (kf *. rf));
        v1;
        v2;
      };
    inputs_sampled = k;
    outputs_per_input = r;
  }
