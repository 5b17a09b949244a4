(* The serving-layer experiment (--serve): a Zipf closed-loop workload
   against the demo server, cold pass then warm pass, recorded in
   bench/BENCH_serve.json through the shared emitter. The run fails
   unless cold and warm estimates are bit-identical, the warm hit rate
   beats the cold one, and the warm p50 is above zero. *)

module Serve = Mde.Serve
module Emit = Mde_bench_emit

let report_row label (r : Serve.Workload.report) =
  [
    label;
    Printf.sprintf "%.1f req/s" r.throughput;
    Printf.sprintf "%.1f us" (1e6 *. r.p50);
    Printf.sprintf "%.1f us" (1e6 *. r.p95);
    Printf.sprintf "%.1f us" (1e6 *. r.p99);
    Printf.sprintf "%.0f%%" (100. *. r.hit_rate);
    Printf.sprintf "%.0f%%" (100. *. r.rejection_rate);
  ]

let run ~domains () =
  Util.section "SERVE"
    (Printf.sprintf "Zipf workload against the serving layer (%d domains)" domains);
  (* Benchmark with observability on: the registry must be live before
     the pool and server exist, and the snapshot rides along in the
     emitted entry so regressions in queue depth or batch shape are
     visible next to the latency trajectory. *)
  let registry = Mde.Obs.create () in
  Mde.Obs.set_default registry;
  let run_with pool =
    let server = Serve.Demo.server ?pool ~cache_capacity:256 () in
    let catalog = Serve.Demo.catalog 24 in
    let config =
      { Serve.Workload.requests = 240; concurrency = 8; zipf_s = 1.1; seed = 7 }
    in
    (config, Serve.Demo.cold_warm (Serve.Target.of_server server) ~catalog config)
  in
  let config, (cold, warm, verdict) =
    (* The shared pool persists across invocations — no domain spawn
       inside the measured window. *)
    if domains > 1 then run_with (Some (Mde.Par.Pool.shared ~domains ()))
    else run_with None
  in
  Mde.Obs.set_default Mde.Obs.noop;
  Util.table
    [ "pass"; "throughput"; "p50"; "p95"; "p99"; "hit rate"; "rejected" ]
    [ report_row "cold" cold; report_row "warm" warm ];
  (match verdict with
  | `Identical n ->
    Util.note "cold vs warm estimates: bit-identical over %d served requests" n
  | `Mismatch n -> Util.note "cold vs warm estimates: %d MISMATCHES" n);
  let path =
    Emit.append ~file:"BENCH_serve.json" ~name:"serve-zipf"
      [
        ("requests", Emit.Int config.requests);
        ("concurrency", Int config.concurrency);
        ("zipf_s", Float config.zipf_s);
        ("seed", Int config.seed);
        ("domains", Int domains);
        ("cold_throughput_rps", Float cold.throughput);
        ("warm_throughput_rps", Float warm.throughput);
        ("warm_p50_s", Float warm.p50);
        ("warm_p95_s", Float warm.p95);
        ("warm_p99_s", Float warm.p99);
        ("cold_hit_rate", Float cold.hit_rate);
        ("warm_hit_rate", Float warm.hit_rate);
        ("rejection_rate", Float warm.rejection_rate);
        ("identical_output", Bool (match verdict with `Identical _ -> true | _ -> false));
        ("metrics", Json (Mde.Obs.Export.json registry));
      ]
  in
  Util.note "recorded in %s" path;
  match verdict with
  | `Mismatch _ -> exit 1
  | `Identical _ when warm.hit_rate <= cold.hit_rate ->
    Util.note "FAIL: warm hit rate did not improve on cold";
    exit 1
  | `Identical _ when not (warm.p50 > 0.) ->
    Util.note "FAIL: warm p50 is %g s: the clock cannot resolve a cache hit" warm.p50;
    exit 1
  | `Identical _ -> ()
