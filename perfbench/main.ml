(* The end-to-end benchmark: command line, run loops and result line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--trace-file PATH]
     main.exe --selftest

   Everything runs in one process on the calling domain, apart from
   the helper that times [Calib]'s reference computation. With
   [--trace 0] the workload is set up several times (set-up time is the
   median), each set-up followed by its share of a closed-loop window
   of S seconds in all; every answer is checked outside the timing, and
   the time figures are scaled to a nominal machine speed. With
   [--trace 1] the same seeded stream is
   replayed for a fixed number of ops twice, plain and traced, and the
   per-layer metrics are read from the traced replay. The last line of
   standard output is one JSON object: correct, attempted, failed and
   the metrics with their units. *)

open Measure

let workloads =
  [
    { name = "serve-hot"; root = "round"; replay_ops = 20_000; setup = Serve_wl.hot };
    { name = "serve-cold"; root = "round"; replay_ops = 2_000; setup = Serve_wl.cold };
    { name = "analytic"; root = "query"; replay_ops = 30; setup = Analytic_wl.setup };
    { name = "session-explore"; root = "session"; replay_ops = 60; setup = Session_wl.setup };
  ]

(* The tail percentile and the stretch of the window it is taken over.
   Requests are numerous enough to support a tail with at least ten
   samples beyond it within each slice, so theirs is a median over
   slices, like throughput and p50; queries and sessions need the whole
   window for their p90. serve-cold's tail is its p90 too: a few percent
   of its requests take several times as long as the rest, the p99
   falls among those, and it moved by a fifth between runs of the same
   code. Its p99 is printed alongside. *)
let tail_of name =
  match name with
  | "serve-hot" -> (0.99, `Slice)
  | "serve-cold" -> (0.90, `Slice)
  | _ -> (0.90, `Window)

let setups = 5
let slices = 20
let samples = 5

let per_layer =
  [
    ("target.submit_us", "us");
    ("target.drain_us", "us");
    ("shard.fingerprint_us", "us");
    ("shard.route_us", "us");
    ("shard.imbalance", "ratio");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions", "count");
    ("scheduler.batches", "count");
    ("scheduler.batch_size_mean", "count");
    ("exec.mcdb_mean_ms", "ms");
    ("exec.mcdb_tail_ms", "ms");
    ("exec.bundle_tail_ms", "ms");
    ("exec.chain_ms", "ms");
    ("exec.composite_ms", "ms");
    ("server.overhead_ms", "ms");
    ("model.query_ms", "ms");
    ("model.vg_ms", "ms");
    ("bundle.cells", "count");
    ("bundle.kernel_fallbacks", "count");
    ("plan.optimize_us", "us");
    ("plan.execute_ms", "ms");
    ("columnar.of_table_ms", "ms");
    ("columnar.select_ms", "ms");
    ("columnar.equi_join_ms", "ms");
    ("columnar.group_by_ms", "ms");
    ("columnar.order_by_ms", "ms");
    ("keycode.encode_ms", "ms");
    ("keycode.refusals", "count");
    ("plan.rows_in", "count");
    ("plan.rows_out", "count");
    ("pool.batches", "count");
    ("pool.seq_batches", "count");
    ("session.tick_ms", "ms");
    ("session.ticks", "count");
    ("session.self_ms", "ms");
    ("session.fresh_reps", "count");
    ("session.reused_reps", "count");
    ("session.reuse_share", "ratio");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("trace.overhead", "ratio");
    ("trace.unattributed_share", "ratio");
  ]

(* The counts that depend only on the seed and the op count; two replays
   at one seed must agree on them exactly. *)
let exact =
  [
    "shard.imbalance";
    "cache.hit_ratio";
    "cache.evictions";
    "scheduler.batches";
    "scheduler.batch_size_mean";
    "bundle.cells";
    "bundle.kernel_fallbacks";
    "keycode.refusals";
    "plan.rows_in";
    "plan.rows_out";
    "pool.batches";
    "pool.seq_batches";
    "session.ticks";
    "session.fresh_reps";
    "session.reused_reps";
    "session.reuse_share";
  ]

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Run [inst] until [stop ops] holds, returning the ops completed and the
   elapsed ns. *)
let loop inst tally ~stop =
  let t0 = now_ns () in
  let ops = ref 0 in
  while not (stop !ops) do
    ops := !ops + inst.step tally
  done;
  (!ops, now_ns () - t0)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       metrics)

(* The result line; a wrong answer makes the whole command fail. *)
let emit ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (json_metrics metrics);
  if failed > 0 then exit 1

(* A plain run is [setups] chunks. Each chunk sets the workload up
   afresh (timed; set-up time is the median), measures [slices /
   setups] slices of the window on that instance, then checks every
   answer the instance gave, outside the timing. Spreading the set-ups
   through the run lets them see the same machine as the window.

   Throughput and median latency are the medians of the slices' own
   figures, so a burst from a neighbour on a shared machine that slows
   part of the run does not move them. The reference computation of
   [Calib] runs [samples] times before every set-up and every slice;
   every time figure is scaled by [Calib.reference_ns] over the median
   of those runs, to the nominal machine speed. Measured figures are
   printed alongside. *)
let plain wl ~seed ~seconds =
  let helper = Calib.start () in
  let refs = ref [] in
  let calibrate () =
    for _ = 1 to samples do
      refs := Calib.sample helper :: !refs
    done
  in
  let tally = tally () in
  let tail, tail_over = tail_of wl.name in
  (* the tail of latencies [lo, hi), noting the fewest samples that lie
     beyond any tail taken *)
  let fewest_beyond = ref max_int in
  let tail_ms lo hi =
    fewest_beyond :=
      min !fewest_beyond (hi - lo - int_of_float (Float.ceil (tail *. float_of_int (hi - lo))));
    ms (Lat.quantile ~lo ~hi tally.lat tail)
  in
  let slice_ns = int_of_float (seconds *. 1e9 /. float_of_int slices) in
  let setup_times = ref [] and rates = ref [] and p50s = ref [] and tails = ref [] in
  let ops = ref 0 and window_ns = ref 0 and failed = ref 0 and peak = ref nan in
  for chunk = 1 to setups do
    calibrate ();
    Gc.compact ();
    let t0 = now_ns () in
    let inst = wl.setup ~tracer:None ~seed in
    (* settling the heap is the last step of set-up *)
    Gc.compact ();
    setup_times := (float_of_int (now_ns () - t0) *. 1e-9) :: !setup_times;
    for _ = 1 to slices / setups do
      calibrate ();
      let lo = tally.lat.Lat.n and ops0 = !ops in
      let t0 = now_ns () in
      let t = ref t0 in
      while !t - t0 < slice_ns do
        ops := !ops + inst.step tally;
        t := now_ns ()
      done;
      let hi = tally.lat.Lat.n in
      window_ns := !window_ns + (!t - t0);
      rates := (float_of_int (!ops - ops0) /. (float_of_int (!t - t0) *. 1e-9)) :: !rates;
      p50s := ms (Lat.quantile ~lo ~hi tally.lat 0.5) :: !p50s;
      if tail_over = `Slice then tails := tail_ms lo hi :: !tails
    done;
    (* the top heap of one set-up and its chunk of the window, read
       before any answer check allocates *)
    if chunk = 1 then peak := heap_mb ();
    failed := !failed + inst.verify ()
  done;
  calibrate ();
  let failed = tally.failed + !failed in
  let reference = median !refs in
  let scale = Calib.reference_ns /. reference in
  let setup_s = median !setup_times and tput = median !rates and p50 = median !p50s in
  let pt = if tail_over = `Window then tail_ms 0 tally.lat.Lat.n else median !tails in
  let p99 = ms (Lat.quantile tally.lat 0.99) in
  let list xs = String.concat " " (List.rev_map (Printf.sprintf "%.4g") xs) in
  Printf.printf "# %s seed %d: %d ops attempted, %d failed, window %.3f s in %d chunks\n" wl.name
    seed tally.attempted failed
    (float_of_int !window_ns *. 1e-9)
    setups;
  Printf.printf
    "# speed: reference run %.4f ms (median of %d, range %.4f-%.4f), nominal %.4f ms; \
     time figures x %.4f\n"
    (ms reference) (List.length !refs)
    (ms (List.fold_left min infinity !refs))
    (ms (List.fold_left max 0. !refs))
    (ms Calib.reference_ns) scale;
  Printf.printf "# setup_s %.4f s nominal, %.4f s measured (median of %d: %s)\n" (setup_s *. scale)
    setup_s setups (list !setup_times);
  Printf.printf "# throughput_rps %.2f 1/s nominal, %.2f measured (median of %d slices: %s)\n"
    (tput /. scale) tput slices (list !rates);
  Printf.printf "# latency_p50_ms %.4f ms nominal, %.4f measured (median of slice medians)\n"
    (p50 *. scale) p50;
  Printf.printf "# latency_p%.0f_ms %.4f ms nominal, %.4f measured (latency_tail_ms; %s)\n"
    (100. *. tail) (pt *. scale) pt
    (match tail_over with
    | `Slice ->
      Printf.sprintf "median of slice tails, at least %d samples beyond each" !fewest_beyond
    | `Window -> Printf.sprintf "whole window, %d samples beyond it" !fewest_beyond);
  if tail < 0.99 then
    Printf.printf "# latency p99 %.4f ms nominal, %.4f measured (whole window)\n" (p99 *. scale) p99;
  Printf.printf "# peak_heap_mb %.2f MB\n" !peak;
  emit ~attempted:tally.attempted ~failed
    [
      ("setup_s", "s", setup_s *. scale);
      ("throughput_rps", "1/s", tput /. scale);
      ("latency_p50_ms", "ms", p50 *. scale);
      ("latency_tail_ms", "ms", pt *. scale);
      ("peak_heap_mb", "MB", !peak);
    ]

(* The plain and the traced replay of the first [ops] ops of the seeded
   stream. Returns attempted, failed, the per-layer metrics and the
   tracer. *)
let traced wl ~seed ~ops =
  let inst = wl.setup ~tracer:None ~seed in
  Gc.compact ();
  let tally0 = tally () in
  let g0 = Gc.quick_stat () in
  let done0, plain_ns = loop inst tally0 ~stop:(fun n -> n >= ops) in
  let g1 = Gc.quick_stat () in
  let per_op x = x /. float_of_int done0 in
  let gc =
    [
      ("gc.minor_words_per_op", per_op (g1.Gc.minor_words -. g0.Gc.minor_words));
      ( "gc.major_collections_per_op",
        per_op (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)) );
    ]
  in
  let failed0 = tally0.failed + inst.verify () in
  Gc.compact ();
  (* a live registry, for the bundle engine's own counters *)
  let obs = Mde_obs.create () in
  Mde_obs.set_default obs;
  let cells = Mde_obs.counter obs "mde_bundle_cells_total" in
  let fallbacks = Mde_obs.counter obs "mde_bundle_fallback_total" in
  let tr = Trace.create () in
  let inst = wl.setup ~tracer:(Some tr) ~seed in
  Gc.compact ();
  let c0 = Mde_obs.Counter.value cells and f0 = Mde_obs.Counter.value fallbacks in
  let tally = tally () in
  Trace.set_on tr true;
  let done1, _ = loop inst tally ~stop:(fun n -> n >= ops) in
  Trace.set_on tr false;
  Mde_obs.set_default Mde_obs.noop;
  let failed = failed0 + tally.failed + inst.verify () in
  let plain_rate = float_of_int done0 /. float_of_int plain_ns in
  let traced_rate = float_of_int done1 /. float_of_int (Trace.total tr wl.root) in
  let metrics =
    inst.layers () @ gc
    @ [
        ("bundle.cells", float_of_int (Mde_obs.Counter.value cells - c0));
        ("bundle.kernel_fallbacks", float_of_int (Mde_obs.Counter.value fallbacks - f0));
        ("trace.overhead", traced_rate /. plain_rate);
        ("trace.unattributed_share", Trace.unattributed_share tr ~root:wl.root);
      ]
  in
  (tally0.attempted + tally.attempted, failed, metrics, tr)

let replay_ops wl ~seconds = max 1 (int_of_float (float_of_int wl.replay_ops *. seconds /. 10.))

let trace_run wl ~seed ~seconds ~trace_file =
  let attempted, failed, metrics, tr = traced wl ~seed ~ops:(replay_ops wl ~seconds) in
  Printf.printf "# %s seed %d traced: %d ops attempted, %d failed\n" wl.name seed attempted failed;
  Trace.summary tr ~root:wl.root stdout;
  Option.iter (Trace.write_chrome tr) trace_file;
  (* every per-layer metric is printed; a layer this workload does not
     cross reads 0 *)
  let value name =
    match List.assoc_opt name metrics with
    | Some v when Float.is_finite v -> v
    | _ -> 0.
  in
  emit ~attempted ~failed (List.map (fun (name, unit) -> (name, unit, value name)) per_layer)

(* Determinism guard: two short traced replays at one seed must agree
   on every exact count, and answer every op correctly. *)
let selftest () =
  let ok = ref true in
  List.iter
    (fun wl ->
      let ops = max 8 (wl.replay_ops / 500) in
      let run () =
        let _, failed, metrics, _ = traced wl ~seed:7 ~ops in
        (failed, List.filter (fun (name, _) -> List.mem name exact) metrics)
      in
      let f1, m1 = run () in
      let f2, m2 = run () in
      let same = List.for_all2 (fun (_, a) (_, b) -> same_float a b) m1 m2 in
      Printf.printf "%s: %d exact counts %s, failed %d/%d\n%!" wl.name (List.length m1)
        (if same then "repeat" else "DIFFER")
        f1 f2;
      if not same then
        List.iter2
          (fun (name, a) (_, b) ->
            if not (same_float a b) then Printf.printf "  %s: %g vs %g\n" name a b)
          m1 m2;
      if (not same) || f1 > 0 || f2 > 0 then ok := false)
    workloads;
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let trace_file = ref None and self = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME serve-hot | serve-cold | analytic | session-explore" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 plain end-to-end run, or traced per-layer run");
      ("--trace-file", Arg.String (fun s -> trace_file := Some s), "PATH Chrome trace-event JSON");
      ("--selftest", Arg.Set self, " determinism guard over every workload");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selftest ();
  match List.find_opt (fun wl -> wl.name = !workload) workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some _ when !seconds <= 0. || (!trace <> 0 && !trace <> 1) ->
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  | Some wl ->
    if !trace = 0 then plain wl ~seed:!seed ~seconds:!seconds
    else trace_run wl ~seed:!seed ~seconds:!seconds ~trace_file:!trace_file
