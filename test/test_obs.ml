(* The observability substrate: registry bookkeeping (idempotent
   registration, type clashes, counter monotonicity), exact histogram
   quantiles, span nesting under an injected clock, the no-op registry's
   do-nothing contract, and the exporters (Prometheus golden output,
   JSON well-formedness, the line validator CI gates on). *)

module Obs = Mde_obs

(* A clock that advances one unit per reading, so span timestamps are
   exact. *)
let ticking () =
  let t = ref 0. in
  fun () ->
    let v = !t in
    t := v +. 1.;
    v

(* --- clock --- *)

(* The default clock is monotonic: successive reads never decrease, and
   it advances across a short sleep. *)
let test_wall_clock_monotonic () =
  let last = ref (Obs.Clock.wall ()) in
  for _ = 1 to 100_000 do
    let now = Obs.Clock.wall () in
    if now < !last then Alcotest.failf "clock went back: %.9f after %.9f" now !last;
    last := now
  done;
  let before = Obs.Clock.wall () in
  Unix.sleepf 0.002;
  Alcotest.(check bool) "a 2 ms sleep advances it" true (Obs.Clock.wall () -. before >= 0.002)

(* --- registry --- *)

let test_counter () =
  let r = Obs.create () in
  let c = Obs.counter r "requests_total" in
  Obs.Counter.incr c;
  Obs.Counter.add c 2;
  Alcotest.(check int) "incr + add" 3 (Obs.Counter.value c);
  (* Registration is idempotent: the same (name, labels) pair is the
     same cell. *)
  let c' = Obs.counter r "requests_total" in
  Obs.Counter.incr c';
  Alcotest.(check int) "same cell through re-registration" 4 (Obs.Counter.value c);
  let l = Obs.counter r ~labels:[ ("k", "v") ] "requests_total" in
  Alcotest.(check int) "distinct labels, distinct cell" 0 (Obs.Counter.value l);
  Alcotest.(check bool) "negative add raises" true
    (try
       Obs.Counter.add c (-1);
       false
     with Invalid_argument _ -> true)

let test_gauge () =
  let r = Obs.create () in
  let g = Obs.gauge r "depth" in
  Obs.Gauge.set g 5.;
  Obs.Gauge.add g (-2.);
  Alcotest.(check (float 0.)) "set then add" 3. (Obs.Gauge.value g)

let test_registration_errors () =
  let r = Obs.create () in
  ignore (Obs.counter r "dual");
  Alcotest.(check bool) "type clash raises" true
    (try
       ignore (Obs.gauge r "dual");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad metric name raises" true
    (try
       ignore (Obs.counter r "bad name");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad label name raises" true
    (try
       ignore (Obs.counter r ~labels:[ ("bad-label", "v") ] "ok");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-increasing buckets raise" true
    (try
       ignore (Obs.histogram r ~buckets:[| 1.; 1. |] "h");
       false
     with Invalid_argument _ -> true)

(* --- histogram quantiles --- *)

let test_histogram_quantiles () =
  let r = Obs.create () in
  let h = Obs.histogram r ~buckets:[| 1.; 2.; 4.; 8. |] "lat" in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Obs.Histogram.quantile h 0.5));
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.5; 1.7; 3.; 3.; 7. ];
  Alcotest.(check int) "count" 6 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 16.7 (Obs.Histogram.sum h);
  (* Nearest rank over buckets: rank 3 of 6 lands in the (1,2] bucket. *)
  Alcotest.(check (float 0.)) "p50 = second bound" 2. (Obs.Histogram.quantile h 0.5);
  (* The top bucket's bound (8) is clamped to the observed max. *)
  Alcotest.(check (float 0.)) "p99 clamped to max" 7. (Obs.Histogram.quantile h 0.99);
  Alcotest.(check (float 0.)) "p0 = first bound" 1. (Obs.Histogram.quantile h 0.)

let test_histogram_overflow () =
  let r = Obs.create () in
  let h = Obs.histogram r ~buckets:[| 1. |] "over" in
  Obs.Histogram.observe h 100.;
  Alcotest.(check (float 0.)) "overflow bucket reads back max" 100.
    (Obs.Histogram.quantile h 1.)

(* --- spans --- *)

let test_span_nesting () =
  let r = Obs.create () in
  let clock = ticking () in
  let result =
    Obs.with_span r ~clock ~name:"outer" (fun () ->
        Obs.with_span r ~clock ~name:"inner" (fun () -> 42))
  in
  Alcotest.(check int) "value returned" 42 result;
  (match Obs.spans r with
  | [ outer; inner ] ->
    Alcotest.(check string) "flame order: parent first" "outer" outer.Obs.name;
    Alcotest.(check int) "outer depth" 0 outer.Obs.depth;
    Alcotest.(check int) "inner depth" 1 inner.Obs.depth;
    (* Clock reads: outer open 0, inner open 1, inner close 2, outer
       close 3. *)
    Alcotest.(check (float 0.)) "outer start" 0. outer.Obs.start;
    Alcotest.(check (float 0.)) "inner start" 1. inner.Obs.start;
    Alcotest.(check (float 0.)) "inner stop" 2. inner.Obs.stop;
    Alcotest.(check (float 0.)) "outer stop" 3. outer.Obs.stop
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans));
  Alcotest.(check int) "none dropped" 0 (Obs.spans_dropped r)

let test_span_exception () =
  let r = Obs.create () in
  let clock = ticking () in
  (try Obs.with_span r ~clock ~name:"boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  match Obs.spans r with
  | [ s ] ->
    Alcotest.(check bool) "span closed despite exception" true
      (not (Float.is_nan s.Obs.stop))
  | _ -> Alcotest.fail "expected one span"

(* --- no-op registry --- *)

let test_noop () =
  Alcotest.(check bool) "noop disabled" false (Obs.enabled Obs.noop);
  Alcotest.(check bool) "live enabled" true (Obs.enabled (Obs.create ()));
  let c = Obs.counter Obs.noop "anything" in
  Obs.Counter.incr c;
  Alcotest.(check int) "noop counter stays 0" 0 (Obs.Counter.value c);
  let h = Obs.histogram Obs.noop "h" in
  Obs.Histogram.observe h 1.;
  Alcotest.(check int) "noop histogram stays empty" 0 (Obs.Histogram.count h);
  Alcotest.(check int) "noop span runs thunk"
    7
    (Obs.with_span Obs.noop ~name:"s" (fun () -> 7));
  Alcotest.(check string) "noop prometheus empty" "" (Obs.Export.prometheus Obs.noop)

let test_default_registry () =
  Alcotest.(check bool) "default starts noop (or was restored)" false
    (Obs.enabled (Obs.default ()));
  let r = Obs.create () in
  Obs.set_default r;
  Alcotest.(check bool) "set_default installs" true (Obs.enabled (Obs.default ()));
  Obs.set_default Obs.noop;
  Alcotest.(check bool) "restored" false (Obs.enabled (Obs.default ()))

(* --- exporters --- *)

let golden_registry () =
  let r = Obs.create () in
  let c = Obs.counter r ~help:"Total requests" "requests_total" in
  Obs.Counter.add c 3;
  let g = Obs.gauge r ~help:"Queue depth" ~labels:[ ("stage", "sched") ] "queue_depth" in
  Obs.Gauge.set g 2.;
  let h = Obs.histogram r ~help:"Latency" ~buckets:[| 0.5; 1. |] "lat" in
  List.iter (Obs.Histogram.observe h) [ 0.25; 0.75; 5. ];
  r

let test_prometheus_golden () =
  let expected =
    String.concat "\n"
      [
        "# HELP requests_total Total requests";
        "# TYPE requests_total counter";
        "requests_total 3";
        "# HELP queue_depth Queue depth";
        "# TYPE queue_depth gauge";
        "queue_depth{stage=\"sched\"} 2";
        "# HELP lat Latency";
        "# TYPE lat histogram";
        "lat_bucket{le=\"0.5\"} 1";
        "lat_bucket{le=\"1\"} 2";
        "lat_bucket{le=\"+Inf\"} 3";
        "lat_sum 6";
        "lat_count 3";
        "";
      ]
  in
  Alcotest.(check string) "exposition text" expected
    (Obs.Export.prometheus (golden_registry ()))

let test_validate_prometheus () =
  let r = golden_registry () in
  (match Obs.Export.validate_prometheus (Obs.Export.prometheus r) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "exporter output rejected: %s" msg);
  let rejects s =
    match Obs.Export.validate_prometheus s with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "bad comment rejected" true (rejects "# BOGUS foo\n");
  Alcotest.(check bool) "unterminated labels rejected" true (rejects "m{le=\"0.1 7\n");
  Alcotest.(check bool) "missing value rejected" true (rejects "just_a_name\n");
  Alcotest.(check bool) "unparseable value rejected" true (rejects "m twelve\n")

let test_json_export () =
  let r = golden_registry () in
  ignore (Obs.with_span r ~clock:(ticking ()) ~name:"s" (fun () -> ()));
  let s = Obs.Export.json r in
  (* Spot checks, not a full parser: the snapshot carries the metrics,
     the quantile readouts and the span. *)
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "json contains %s" needle) true (go 0)
  in
  contains "\"name\": \"requests_total\"";
  contains "\"value\": 3";
  contains "\"p50\"";
  contains "\"spans_dropped\": 0";
  contains "\"name\": \"s\""

let () =
  Alcotest.run "obs"
    [
      ( "clock", [ Alcotest.test_case "monotonic" `Quick test_wall_clock_monotonic ] );
      ( "registry",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter;
          Alcotest.test_case "gauge semantics" `Quick test_gauge;
          Alcotest.test_case "registration errors" `Quick test_registration_errors;
          Alcotest.test_case "default registry" `Quick test_default_registry;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "overflow bucket" `Quick test_histogram_overflow;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and flame order" `Quick test_span_nesting;
          Alcotest.test_case "closed on exception" `Quick test_span_exception;
        ] );
      ( "noop",
        [ Alcotest.test_case "all operations inert" `Quick test_noop ] );
      ( "export",
        [
          Alcotest.test_case "prometheus golden output" `Quick test_prometheus_golden;
          Alcotest.test_case "validator" `Quick test_validate_prometheus;
          Alcotest.test_case "json snapshot" `Quick test_json_export;
        ] );
    ]
