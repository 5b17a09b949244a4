module Rng = Mde_prob.Rng

type config = { requests : int; concurrency : int; zipf_s : float; seed : int }

type report = {
  issued : int;
  served : int;
  rejected : int;
  degraded : int;
  hits : int;
  elapsed : float;
  throughput : float;
  mean_latency : float;
  p50 : float;
  p95 : float;
  p99 : float;
  hit_rate : float;
  rejection_rate : float;
}

let zipf_cdf ~s ~n =
  if n < 1 then invalid_arg "Workload.zipf_cdf: n must be >= 1";
  if s < 0. then invalid_arg "Workload.zipf_cdf: s must be >= 0";
  let weights = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let acc = ref 0. in
  Array.map
    (fun w ->
      acc := !acc +. (w /. total);
      !acc)
    weights

let zipf_sample rng cdf =
  let u = Rng.float rng in
  (* First rank whose cumulative probability exceeds u. *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* Nearest-rank percentile of a pre-sorted sample. The empty check is a
   real branch, not an assert: it must survive `--profile noassert`. *)
let percentile_sorted sorted q =
  match Array.length sorted with
  | 0 -> invalid_arg "Workload.percentile: empty sample array"
  | n ->
    let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) rank))

let percentile xs q =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted sorted q

let percentiles xs qs =
  if Array.length xs = 0 then invalid_arg "Workload.percentiles: empty sample array";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  Array.map (percentile_sorted sorted) qs

(* What both loops report of their responses ([None] = dropped):
   served, degraded, hits, throughput, mean latency and percentiles. *)
let summarize responses ~elapsed =
  let latencies =
    Array.of_seq
      (Seq.filter_map
         (Option.map (fun (r : Server.response) -> r.Server.latency))
         (Array.to_seq responses))
  in
  let served = Array.length latencies in
  let count pred =
    Array.fold_left
      (fun acc -> function Some r when pred r -> acc + 1 | _ -> acc)
      0 responses
  in
  (* One sort serves all three report percentiles. The reports document
     nan percentiles when nothing was served; only explicit
     [percentile]/[percentiles] calls reject empty samples. *)
  let ps =
    if served = 0 then [| nan; nan; nan |] else percentiles latencies [| 0.50; 0.95; 0.99 |]
  in
  ( served,
    count (fun r -> r.Server.degraded),
    count (fun r -> r.Server.cache = Server.Hit),
    (if elapsed > 0. then float_of_int served /. elapsed else infinity),
    (if served = 0 then nan else Array.fold_left ( +. ) 0. latencies /. float_of_int served),
    (ps.(0), ps.(1), ps.(2)) )

(* --- open loop --- *)

type open_config = { arrivals : int; rate : float; zipf_s : float; seed : int }

type open_report = {
  offered : int;
  offered_rate : float;
  served : int;
  shed : int;
  degraded : int;
  hits : int;
  elapsed : float;
  throughput : float;
  mean_latency : float;
  p50 : float;
  p95 : float;
  p99 : float;
  shed_rate : float;
}

let run_open ?(clock = Mde_obs.Clock.wall) target ~catalog (config : open_config) =
  if Array.length catalog = 0 then invalid_arg "Workload.run_open: empty catalog";
  if config.arrivals < 1 then invalid_arg "Workload.run_open: arrivals must be >= 1";
  if not (config.rate > 0.) then invalid_arg "Workload.run_open: rate must be positive";
  let rng = Rng.create ~seed:config.seed () in
  let cdf = zipf_cdf ~s:config.zipf_s ~n:(Array.length catalog) in
  (* The whole arrival process — exponential interarrival gaps at [rate]
     (a Poisson process) and a Zipf catalog pick per arrival — is fixed
     by the seed before the first submission, so it can never depend on
     how the target behaves (the defining property of an open loop). *)
  let schedule =
    let time = ref 0. in
    Array.init config.arrivals (fun _ ->
        time := !time +. (-.log (Rng.float_pos rng) /. config.rate);
        (!time, zipf_sample rng cdf))
  in
  let responses = Array.make config.arrivals None in
  let shed = ref 0 in
  let outstanding = ref 0 in
  let ids = Hashtbl.create 64 in
  let next = ref 0 in
  let t0 = clock () in
  while !next < config.arrivals || !outstanding > 0 do
    let now = clock () -. t0 in
    (* Submit every arrival whose time has come, whether or not earlier
       requests completed — under overload this bunches arrivals into
       bursts that fill the bounded queues and trigger shedding. *)
    while !next < config.arrivals && fst schedule.(!next) <= now do
      let index = !next in
      incr next;
      match Target.submit target catalog.(snd schedule.(index)) with
      | `Queued id ->
        Hashtbl.replace ids id index;
        incr outstanding
      | `Dropped -> incr shed
    done;
    if !outstanding > 0 then
      List.iter
        (fun (id, resp) ->
          responses.(Hashtbl.find ids id) <- Some resp;
          decr outstanding)
        (Target.drain target)
    (* else: spin on the clock until the next arrival is due. *)
  done;
  let elapsed = clock () -. t0 in
  let served, degraded, hits, throughput, mean_latency, (p50, p95, p99) =
    summarize responses ~elapsed
  in
  ( {
      offered = config.arrivals;
      offered_rate = config.rate;
      served;
      shed = !shed;
      degraded;
      hits;
      elapsed;
      throughput;
      mean_latency;
      p50;
      p95;
      p99;
      shed_rate =
        (if config.arrivals = 0 then 0.
         else float_of_int !shed /. float_of_int config.arrivals);
    },
    responses )

let run ?(clock = Mde_obs.Clock.wall) target ~catalog config =
  if Array.length catalog = 0 then invalid_arg "Workload.run: empty catalog";
  if config.requests < 1 then invalid_arg "Workload.run: requests must be >= 1";
  if config.concurrency < 1 then invalid_arg "Workload.run: concurrency must be >= 1";
  let rng = Rng.create ~seed:config.seed () in
  let cdf = zipf_cdf ~s:config.zipf_s ~n:(Array.length catalog) in
  let responses = Array.make config.requests None in
  let rejected = ref 0 in
  let issued = ref 0 in
  let t0 = clock () in
  while !issued < config.requests do
    let round = Stdlib.min config.concurrency (config.requests - !issued) in
    (* Submit the round's requests (closed loop: nothing new until the
       batch drains), remembering which workload index each id serves. *)
    let ids = Hashtbl.create round in
    for _ = 1 to round do
      let index = !issued in
      incr issued;
      let request = catalog.(zipf_sample rng cdf) in
      match Target.submit target request with
      | `Queued id -> Hashtbl.replace ids id index
      | `Dropped -> incr rejected
    done;
    List.iter
      (fun (id, resp) -> responses.(Hashtbl.find ids id) <- Some resp)
      (Target.drain target)
  done;
  let elapsed = clock () -. t0 in
  let served, degraded, hits, throughput, mean_latency, (p50, p95, p99) =
    summarize responses ~elapsed
  in
  ( {
      issued = !issued;
      served;
      rejected = !rejected;
      degraded;
      hits;
      elapsed;
      throughput;
      mean_latency;
      p50;
      p95;
      p99;
      hit_rate = (if served = 0 then 0. else float_of_int hits /. float_of_int served);
      rejection_rate =
        (if !issued = 0 then 0. else float_of_int !rejected /. float_of_int !issued);
    },
    responses )
