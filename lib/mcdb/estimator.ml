module Stats = Mde_prob.Stats
module Special = Mde_prob.Special

type estimate = {
  n : int;
  dropped : int;
  mean : float;
  std : float;
  std_error : float;
  ci95 : float * float;
}

(* Every entry point drops NaN samples (empty-group repetitions) before
   computing. A non-empty input that cleans to nothing is a caller error
   — every repetition produced no value — and must fail loudly here
   rather than crash deep inside [Stats.quantile] on an empty array. *)
let clean_counted ~who xs =
  let kept =
    Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list xs))
  in
  let total = Array.length xs in
  let dropped = total - Array.length kept in
  if total > 0 && dropped = total then
    invalid_arg
      (Printf.sprintf "Estimator.%s: all %d samples are NaN (every repetition empty)"
         who total);
  (kept, dropped)

let of_samples xs =
  let xs, dropped = clean_counted ~who:"of_samples" xs in
  let n = Array.length xs in
  if n < 2 then
    invalid_arg
      (if dropped = 0 then "Estimator.of_samples: need at least 2 samples"
       else
         Printf.sprintf
           "Estimator.of_samples: need at least 2 samples (%d left after dropping %d NaN)"
           n dropped);
  let mean = Stats.mean xs in
  let std = Stats.std xs in
  let std_error = std /. sqrt (float_of_int n) in
  let z = 1.959963984540054 in
  {
    n;
    dropped;
    mean;
    std;
    std_error;
    ci95 = (mean -. (z *. std_error), mean +. (z *. std_error));
  }

let pp_estimate ppf e =
  (* The printed half-width is derived from the stored interval, so the
     ± and the [lo, hi] always agree. *)
  let lo, hi = e.ci95 in
  Format.fprintf ppf "mean=%.6g ± %.3g (95%% CI [%.6g, %.6g], n=%d)" e.mean
    ((hi -. lo) /. 2.) lo hi e.n

let quantile xs p = Stats.quantile (fst (clean_counted ~who:"quantile" xs)) p

(* [who] for the error message; validation shared by the quantile-style
   queries. Written as [not (p > 0. && ...)] so a NaN parameter also
   fails. These used to be [assert]s, which [-noassert] compiles out —
   the checks must survive release builds. *)
let check_unit_interval ~who ~what p =
  if not (p > 0. && p < 1.) then
    invalid_arg (Printf.sprintf "Estimator.%s: %s must be in (0,1)" who what)

let sorted_copy xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  sorted

(* The order-statistic CI of the [p]-quantile over [sorted]: ranks
   n·p ± z·sqrt(n·p·(1−p)) at the two-sided [level], clamped to the
   sample. The one rank rule behind [quantile_ci] and [tail_estimate]. *)
let rank_ci sorted p level =
  let z = Special.normal_inv_cdf (1. -. ((1. -. level) /. 2.)) in
  let nf = float_of_int (Array.length sorted) in
  let half_width = z *. sqrt (nf *. p *. (1. -. p)) in
  let lo_rank = Float.to_int (Float.max 0. (floor ((nf *. p) -. half_width))) in
  let hi_rank = Float.to_int (Float.min (nf -. 1.) (ceil ((nf *. p) +. half_width))) in
  (sorted.(lo_rank), sorted.(hi_rank))

let quantile_ci xs p level =
  let xs, _ = clean_counted ~who:"quantile_ci" xs in
  if Array.length xs < 2 then invalid_arg "Estimator.quantile_ci: need at least 2 samples";
  check_unit_interval ~who:"quantile_ci" ~what:"p" p;
  check_unit_interval ~who:"quantile_ci" ~what:"level" level;
  rank_ci (sorted_copy xs) p level

let extreme_quantile xs p =
  let xs, _ = clean_counted ~who:"extreme_quantile" xs in
  let n = Array.length xs in
  check_unit_interval ~who:"extreme_quantile" ~what:"p" p;
  let tail = Float.min p (1. -. p) in
  if float_of_int n *. tail < 1. then
    invalid_arg
      (Printf.sprintf
         "Estimator.extreme_quantile: %d samples leave the %.4g tail empty; \
          draw more repetitions"
         n tail);
  Stats.quantile xs p

let quantiles xs ps =
  let xs, _ = clean_counted ~who:"quantiles" xs in
  if Array.length xs = 0 then invalid_arg "Estimator.quantiles: need at least 1 sample";
  Array.iter (fun p ->
      if not (p >= 0. && p <= 1.) then
        invalid_arg "Estimator.quantiles: every p must be in [0,1]")
    ps;
  Stats.quantiles xs ps

(* extreme_quantile + quantile_ci share the same sorted order statistics;
   serving-layer tail queries want both, so compute them off one sort.
   The CI is [rank_ci]'s, so the pair is identical to the two separate
   calls (the estimator tests assert it). *)
let tail_estimate xs ~p ~level =
  let xs, _ = clean_counted ~who:"tail_estimate" xs in
  let n = Array.length xs in
  if n < 2 then invalid_arg "Estimator.tail_estimate: need at least 2 samples";
  check_unit_interval ~who:"tail_estimate" ~what:"p" p;
  check_unit_interval ~who:"tail_estimate" ~what:"level" level;
  let tail = Float.min p (1. -. p) in
  if float_of_int n *. tail < 1. then
    invalid_arg
      (Printf.sprintf
         "Estimator.tail_estimate: %d samples leave the %.4g tail empty; draw \
          more repetitions"
         n tail);
  let sorted = sorted_copy xs in
  (Stats.quantile_sorted sorted p, rank_ci sorted p level)

let conditional_tail_expectation xs p =
  let xs, _ = clean_counted ~who:"conditional_tail_expectation" xs in
  let q = Stats.quantile xs p in
  let tail = List.filter (fun x -> x >= q) (Array.to_list xs) in
  match tail with
  | [] -> q
  | _ -> Stats.mean (Array.of_list tail)

let threshold_probability xs cutoff =
  let xs, _ = clean_counted ~who:"threshold_probability" xs in
  let n = Array.length xs in
  if n < 1 then invalid_arg "Estimator.threshold_probability: need at least 1 sample";
  let k = Array.fold_left (fun acc x -> if x > cutoff then acc + 1 else acc) 0 xs in
  let p_hat = float_of_int k /. float_of_int n in
  (* Wilson score interval at 95%. *)
  let z = 1.959963984540054 in
  let nf = float_of_int n in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. nf) in
  let center = (p_hat +. (z2 /. (2. *. nf))) /. denom in
  let half =
    z *. sqrt ((p_hat *. (1. -. p_hat) /. nf) +. (z2 /. (4. *. nf *. nf))) /. denom
  in
  (p_hat, (Float.max 0. (center -. half), Float.min 1. (center +. half)))

let exceeds_with_probability xs ~cutoff ~prob =
  let p_hat, _ = threshold_probability xs cutoff in
  p_hat >= prob
