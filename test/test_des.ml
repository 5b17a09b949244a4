module Event_queue = Mde_des.Event_queue
module Engine = Mde_des.Engine
module Queueing = Mde_des.Queueing
module Rng = Mde_prob.Rng

let check_close eps = Alcotest.(check (float eps))

(* --- event queue --- *)

let test_queue_ordering () =
  let q = Event_queue.create () in
  List.iter
    (fun (t, v) -> Event_queue.add q ~time:t v)
    [ (3., "c"); (1., "a"); (2., "b"); (5., "e"); (4., "d") ];
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c"; "d"; "e" ]
    (List.rev !order)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.add q ~time:1. i
  done;
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "FIFO among ties" (List.init 10 Fun.id) (List.rev !order)

let test_queue_interleaved () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:2. 2;
  Event_queue.add q ~time:1. 1;
  Alcotest.(check (option (float 0.))) "peek" (Some 1.) (Event_queue.peek_time q);
  (match Event_queue.pop q with
  | Some (t, v) ->
    check_close 1e-12 "time" 1. t;
    Alcotest.(check int) "value" 1 v
  | None -> Alcotest.fail "empty");
  Event_queue.add q ~time:0.5 0;
  (match Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check int) "later add wins" 0 v
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "size" 1 (Event_queue.size q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"pop sequence is sorted by time" ~count:200
    QCheck.(list (float_range 0. 100.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.add q ~time:t ()) times;
      let rec drain last =
        match Event_queue.pop q with
        | Some (t, ()) -> t >= last && drain t
        | None -> true
      in
      drain neg_infinity)

(* --- engine --- *)

let test_engine_fires_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine ~delay:2. (fun e -> log := ("b", Engine.now e) :: !log);
  Engine.schedule engine ~delay:1. (fun e ->
      log := ("a", Engine.now e) :: !log;
      (* Handlers may schedule relative to the current clock. *)
      Engine.schedule e ~delay:0.5 (fun e -> log := ("a2", Engine.now e) :: !log));
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "a2"; "b" ]
    (List.rev_map fst !log);
  check_close 1e-12 "clock at last event" 2. (Engine.now engine);
  Alcotest.(check int) "count" 3 (Engine.events_processed engine)

let test_engine_horizon () =
  let engine = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Engine.schedule engine ~delay:(float_of_int i) (fun _ -> incr fired)
  done;
  Engine.run ~until:4.5 engine;
  Alcotest.(check int) "only events before horizon" 4 !fired;
  check_close 1e-12 "clock stops at horizon" 4.5 (Engine.now engine);
  Alcotest.(check int) "rest pending" 6 (Engine.pending engine)

let test_engine_max_events () =
  let engine = Engine.create () in
  let rec recurring e =
    Engine.schedule e ~delay:1. recurring
  in
  Engine.schedule engine ~delay:1. recurring;
  Engine.run ~max_events:25 engine;
  Alcotest.(check int) "budget respected" 25 (Engine.events_processed engine)

let test_engine_rejects_past () =
  let engine = Engine.create () in
  Engine.schedule engine ~delay:5. (fun e ->
      Alcotest.(check bool) "past scheduling rejected" true
        (try
           Engine.schedule_at e ~time:1. (fun _ -> ());
           false
         with Invalid_argument _ -> true));
  Engine.run engine

(* --- M/M/c validation --- *)

let run_mmc params seed =
  Queueing.simulate params ~customers:60_000 (Rng.create ~seed ())

let check_queueing_theory name params seed =
  let r = run_mmc params seed in
  let wq = Queueing.theoretical_wq params in
  let w = Queueing.theoretical_w params in
  let rho = Queueing.theoretical_utilization params in
  check_close (0.08 *. Float.max 0.05 wq) (name ^ " Wq") wq r.Queueing.mean_wait_in_queue;
  check_close (0.06 *. w) (name ^ " W") w r.Queueing.mean_time_in_system;
  check_close 0.02 (name ^ " rho") rho r.Queueing.utilization;
  (* Little's law on the simulated series itself. *)
  check_close
    (0.1 *. Float.max 0.05 (Queueing.theoretical_lq params))
    (name ^ " Lq")
    (Queueing.theoretical_lq params)
    r.Queueing.mean_queue_length

let test_mm1 () =
  check_queueing_theory "M/M/1 rho=0.6"
    { Queueing.arrival_rate = 3.; service_rate = 5.; servers = 1 }
    1

let test_mm1_heavy () =
  check_queueing_theory "M/M/1 rho=0.85"
    { Queueing.arrival_rate = 8.5; service_rate = 10.; servers = 1 }
    2

let test_mm3 () =
  check_queueing_theory "M/M/3 rho=0.7"
    { Queueing.arrival_rate = 10.5; service_rate = 5.; servers = 3 }
    3

let test_erlang_c_limits () =
  (* c = 1: Erlang C reduces to rho. *)
  let p1 = { Queueing.arrival_rate = 3.; service_rate = 5.; servers = 1 } in
  check_close 1e-12 "ErlangC(c=1) = rho" 0.6 (Queueing.erlang_c p1);
  (* Many idle servers: delay probability tiny. *)
  let p8 = { Queueing.arrival_rate = 1.; service_rate = 5.; servers = 8 } in
  Alcotest.(check bool) "near zero" true (Queueing.erlang_c p8 < 1e-6)

let test_more_servers_less_wait () =
  let base = { Queueing.arrival_rate = 9.; service_rate = 5.; servers = 2 } in
  let more = { base with Queueing.servers = 4 } in
  Alcotest.(check bool) "extra servers shrink Wq" true
    (Queueing.theoretical_wq more < Queueing.theoretical_wq base /. 5.);
  let r2 = run_mmc base 4 and r4 = run_mmc more 5 in
  Alcotest.(check bool) "simulated too" true
    (r4.Queueing.mean_wait_in_queue < r2.Queueing.mean_wait_in_queue)

(* Preconditions raise Invalid_argument, with or without -noassert. *)
let test_preconditions () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ())) in
  let mm1 = { Queueing.arrival_rate = 3.; service_rate = 5.; servers = 1 } in
  let rng () = Rng.create ~seed:1 () in
  raises "Engine.schedule: delay must be non-negative" (fun () ->
      Engine.schedule (Engine.create ()) ~delay:(-1.) ignore);
  raises "Queueing.simulate: rates must be positive and servers at least 1" (fun () ->
      Queueing.simulate { mm1 with servers = 0 } ~customers:10 (rng ()));
  raises "Queueing.simulate: customers must be at least 1" (fun () ->
      Queueing.simulate mm1 ~customers:0 (rng ()));
  raises "Queueing.erlang_c: the system must be stable (arrival_rate < servers * service_rate)"
    (fun () -> Queueing.erlang_c { mm1 with arrival_rate = 5. })

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mde_des"
    [
      ( "event_queue",
        [
          Alcotest.test_case "time ordering" `Quick test_queue_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_queue_interleaved;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fires in order" `Quick test_engine_fires_in_order;
          Alcotest.test_case "horizon" `Quick test_engine_horizon;
          Alcotest.test_case "event budget" `Quick test_engine_max_events;
          Alcotest.test_case "rejects the past" `Quick test_engine_rejects_past;
        ] );
      ( "queueing",
        [
          Alcotest.test_case "M/M/1 moderate" `Slow test_mm1;
          Alcotest.test_case "M/M/1 heavy" `Slow test_mm1_heavy;
          Alcotest.test_case "M/M/3" `Slow test_mm3;
          Alcotest.test_case "Erlang C limits" `Quick test_erlang_c_limits;
          Alcotest.test_case "server scaling" `Slow test_more_servers_less_wait;
          Alcotest.test_case "invalid inputs raise" `Quick test_preconditions;
        ] );
      ("properties", qc [ prop_queue_sorted ]);
    ]
