(* The --shard experiment: the sharded serving front over the demo catalog,
   recorded in bench/BENCH_serve.json as the "shard-openloop" entry.

   Two phases:

   - bit-identity: the same Zipf-sampled request sequence is served
     request by request through a single-shard [Server] and a [shards]-
     shard [Shard] front, and every response pair is compared bit for bit
     (value, CI, repetitions). The timed pass doubles as the capacity
     estimate the rate sweep calibrates against;
   - open-loop sweep: a fresh front per point (small per-shard queues) is
     driven by [Workload.run_open] at 0.5x, 1x, 2x and 8x the measured
     capacity, so the top point is deliberately overloaded and typed
     shedding must engage. The sweep catalog reroutes the bundle
     templates through the federated "sbp_any" name, so the federation
     path runs under load.

   The run fails unless the front is bit-identical to the single shard
   and the overloaded top point shed > 0, served > 0 with a finite p99. *)

module Serve = Mde.Serve
module W = Serve.Workload
module Emit = Mde_bench_emit

let rows = 60
let catalog = 16
let arrivals = 160
let queue = 8
let zipf = 1.1
let seed = 7

(* 8x the measured paired-pass capacity overshoots even a generous
   estimate of the front's true capacity, so the top sweep point is
   overloaded by construction and the shed gate is machine-speed
   independent. *)
let multipliers = [ 0.5; 1.0; 2.0; 8.0 ]

let responses_identical (a : Serve.Server.response) (b : Serve.Server.response) =
  a.Serve.Server.value = b.Serve.Server.value
  && a.Serve.Server.ci95 = b.Serve.Server.ci95
  && a.Serve.Server.reps_executed = b.Serve.Server.reps_executed

let ms v = if Float.is_finite v then Printf.sprintf "%.2f" (1e3 *. v) else "-"

let run ?(shards = 2) () =
  Util.section "SHARD"
    (Printf.sprintf "sharded serving front: %d shards, open-loop overload sweep" shards);
  let templates = Serve.Demo.catalog catalog in
  (* Phase 1 — bit-identity + capacity. The same Zipf-sampled sequence
     (repeats exercise both sides' caches) is served request by request
     through a single-shard server and the front; serve drains
     immediately, so queues never fill and nothing is shed. *)
  let picks =
    let cdf = W.zipf_cdf ~s:zipf ~n:catalog in
    let rng = Mde.Prob.Rng.create ~seed:(seed + 17) () in
    Array.init arrivals (fun _ -> W.zipf_sample rng cdf)
  in
  let single = Serve.Demo.server ~rows () in
  let front = Serve.Demo.front ~rows ~shards () in
  let compared = ref 0 and mismatches = ref 0 in
  let t0 = Mde.Obs.Clock.wall () in
  Array.iter
    (fun rank ->
      let request = templates.(rank) in
      match (Serve.Server.serve single request, Serve.Shard.serve front request) with
      | `Served a, `Served b ->
        incr compared;
        if not (responses_identical a b) then incr mismatches
      | (`Rejected | `Served _), (`Shed _ | `Served _) -> ())
    picks;
  let elapsed = Mde.Obs.Clock.wall () -. t0 in
  ignore (Serve.Shard.shutdown front);
  let capacity_rps = if elapsed > 0. then float_of_int arrivals /. elapsed else infinity in
  let identical = !compared > 0 && !mismatches = 0 in
  (* Phase 2 — the open-loop sweep, a fresh cold front per point so the
     points are comparable. Small per-shard queues keep the shed
     threshold low and p99 structurally bounded under overload. *)
  let sweep_catalog =
    Array.map
      (fun (r : Serve.Server.request) ->
        if r.Serve.Server.model = "sbp_bundle" then { r with Serve.Server.model = "sbp_any" }
        else r)
      templates
  in
  let scheduler = { Serve.Scheduler.default_config with queue_capacity = queue } in
  let points =
    List.map
      (fun m ->
        let rate = m *. capacity_rps in
        let front = Serve.Demo.front ~rows ~scheduler ~shards () in
        let report, _ =
          W.run_open (Serve.Target.of_shard front) ~catalog:sweep_catalog
            { W.arrivals; rate; zipf_s = zipf; seed }
        in
        ignore (Serve.Shard.shutdown front);
        (rate, report))
      multipliers
  in
  Printf.printf "  %d shards, %d-template catalog, %d arrivals, queue %d/shard\n" shards
    catalog arrivals queue;
  if identical then
    Printf.printf
      "  sharded vs single-shard estimates: bit-identical over %d compared requests\n"
      !compared
  else
    Printf.printf "  sharded vs single-shard estimates: %d MISMATCHES over %d compared\n"
      !mismatches !compared;
  Printf.printf "  paired-pass capacity estimate: %.1f req/s\n\n" capacity_rps;
  Printf.printf "  %12s %12s %9s %9s %9s %7s %7s\n" "offered" "throughput" "p50" "p95" "p99"
    "served" "shed";
  List.iter
    (fun (rate, (rep : W.open_report)) ->
      Printf.printf "  %10.1f/s %10.1f/s %7sms %7sms %7sms %7d %7d\n" rate rep.throughput
        (ms rep.p50) (ms rep.p95) (ms rep.p99) rep.served rep.shed)
    points;
  (* The curve rides along as one raw Json array; percentiles over an
     all-shed point are nan, which json_float renders as null so the
     accumulated BENCH_serve.json stays parseable. *)
  let curve =
    "["
    ^ String.concat ", "
        (List.map
           (fun (rate, (rep : W.open_report)) ->
             Printf.sprintf
               "{\"offered_rps\": %s, \"throughput_rps\": %s, \"served\": %d, \"shed\": \
                %d, \"shed_rate\": %s, \"hits\": %d, \"p50_s\": %s, \"p95_s\": %s, \
                \"p99_s\": %s}"
               (Emit.json_float rate) (Emit.json_float rep.throughput) rep.served rep.shed
               (Emit.json_float rep.shed_rate) rep.hits (Emit.json_float rep.p50)
               (Emit.json_float rep.p95) (Emit.json_float rep.p99))
           points)
    ^ "]"
  in
  let path =
    Emit.append ~file:"BENCH_serve.json" ~name:"shard-openloop"
      [
        ("shards", Emit.Int shards);
        ("rows", Int rows);
        ("catalog", Int catalog);
        ("arrivals", Int arrivals);
        ("queue_capacity", Int queue);
        ("zipf_s", Float zipf);
        ("seed", Int seed);
        ("capacity_rps", Float capacity_rps);
        ("compared", Int !compared);
        ("identical_output", Bool identical);
        ("shed_engaged", Bool (List.exists (fun (_, rep) -> rep.W.shed > 0) points));
        ("curve", Json curve);
      ]
  in
  Util.note "recorded in %s" path;
  let fail msg =
    Util.note "FAIL: %s" msg;
    exit 1
  in
  if not identical then
    fail
      (Printf.sprintf "sharded vs single-shard: %d mismatches over %d compared" !mismatches
         !compared);
  let _, top = List.nth points (List.length points - 1) in
  if top.W.shed = 0 then fail "overloaded top rate shed nothing: admission control never engaged";
  if top.W.served = 0 then
    fail "overloaded top rate served nothing: the front sank instead of shedding";
  if not (Float.is_finite top.W.p99) then
    fail "overloaded top rate has non-finite p99 over served requests"
