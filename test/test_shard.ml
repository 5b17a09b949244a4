(* The sharded serving front: rendezvous-router placement properties
   (stability under growth, degenerate fronts), sharded-vs-single-shard
   bit-identity over a randomized Zipf workload, typed load shedding at
   both admission levels, federation catalog resolution and
   bit-identity across backends, open-loop workload accounting, and the
   shutdown contracts (scheduler banked-completion delivery, abandoned
   accounting, front-wide shutdown). *)

module Serve = Mde_serve
module Router = Mde_serve.Router
module Shard = Mde_serve.Shard
module Scheduler = Mde_serve.Scheduler
module Server = Mde_serve.Server
module Workload = Mde_serve.Workload
module Target = Mde_serve.Target
module Demo = Mde_serve.Demo
module Rng = Mde_prob.Rng

let keys n = Array.init n (Printf.sprintf "query-fingerprint-%d")

(* --- router --- *)

let test_router_validation () =
  Alcotest.check_raises "zero shards" (Invalid_argument "Router.create: shards must be >= 1")
    (fun () -> ignore (Router.create ~shards:0))

let test_router_one_shard () =
  let r = Router.create ~shards:1 in
  Array.iter
    (fun k -> Alcotest.(check int) "all keys on shard 0" 0 (Router.route r k))
    (keys 64)

let test_router_matches_weight_argmax () =
  let shards = 5 in
  let r = Router.create ~shards in
  Array.iter
    (fun k ->
      let best = ref 0 in
      for shard = 1 to shards - 1 do
        if
          Int64.unsigned_compare
            (Router.weight ~key:k ~shard)
            (Router.weight ~key:k ~shard:!best)
          > 0
        then best := shard
      done;
      Alcotest.(check int) "route = highest-weight shard" !best (Router.route r k))
    (keys 200)

let test_router_deterministic_and_bounded () =
  let r = Router.create ~shards:7 in
  Array.iter
    (fun k ->
      let s = Router.route r k in
      Alcotest.(check bool) "in range" true (s >= 0 && s < 7);
      Alcotest.(check int) "same key, same shard" s (Router.route r k))
    (keys 128)

(* Growing n -> n+1 must remap only keys won by the new shard: the
   rendezvous weights of existing shards are unchanged, so a key either
   keeps its shard or moves to the newcomer — never between old shards —
   and the moved fraction concentrates around K/(n+1). *)
let test_router_growth_remaps_few () =
  let k = 500 in
  let before = Router.create ~shards:4 in
  let after = Router.resize before ~shards:5 in
  let moved = ref 0 in
  Array.iter
    (fun key ->
      let b = Router.route before key and a = Router.route after key in
      if b <> a then begin
        incr moved;
        Alcotest.(check int) "moved keys land on the new shard" 4 a
      end)
    (keys k);
  Alcotest.(check bool)
    (Printf.sprintf "moved %d of %d keys, expected <= %d" !moved k (2 * k / 5))
    true
    (!moved <= 2 * k / 5);
  Alcotest.(check bool) "growth moves something" true (!moved > 0)

(* --- sharded front vs single shard --- *)

let responses_identical (a : Server.response) (b : Server.response) =
  a.Server.value = b.Server.value && a.Server.ci95 = b.Server.ci95
  && a.Server.reps_executed = b.Server.reps_executed

let test_sharded_equals_single () =
  let catalog = Demo.catalog 10 in
  let single = Demo.server ~rows:40 () in
  let front = Demo.front ~rows:40 ~shards:3 () in
  let cdf = Workload.zipf_cdf ~s:1.1 ~n:(Array.length catalog) in
  let rng = Rng.create ~seed:99 () in
  let compared = ref 0 in
  for _ = 1 to 50 do
    let request = catalog.(Workload.zipf_sample rng cdf) in
    match (Server.serve single request, Shard.serve front request) with
    | `Served a, `Served b ->
      incr compared;
      Alcotest.(check bool) "sharded bits == single-shard bits" true
        (responses_identical a b)
    | _ -> Alcotest.fail "nothing was shed or rejected in this workload"
  done;
  Alcotest.(check int) "all 50 pairs compared" 50 !compared;
  (* Routing spread the catalog: more than one shard saw traffic, and
     the imbalance gauge is a finite ratio >= 1. *)
  let stats = Shard.stats front in
  let active =
    Array.fold_left (fun n routed -> if routed > 0 then n + 1 else n) 0 stats.Shard.routed
  in
  Alcotest.(check bool) "several shards active" true (active > 1);
  let imb = Shard.imbalance front in
  Alcotest.(check bool) "imbalance finite and >= 1" true
    (Float.is_finite imb && imb >= 1.)

let test_same_fingerprint_same_shard () =
  let front = Demo.front ~rows:20 ~shards:4 () in
  Array.iter
    (fun request ->
      Alcotest.(check int) "shard_of is a pure function of the fingerprint"
        (Shard.shard_of front request) (Shard.shard_of front request))
    (Demo.catalog 12);
  let r = { Server.model = "sbp"; kind = Server.Mcdb_mean { reps = 8 }; seed = 3; deadline = None } in
  Alcotest.(check int) "equal requests, equal shard" (Shard.shard_of front r)
    (Shard.shard_of front { r with Server.model = "sbp" })

(* --- typed shedding --- *)

let test_shed_shard_queue_full () =
  let scheduler = { Scheduler.queue_capacity = 2; batch_size = 8 } in
  let front = Demo.front ~rows:20 ~scheduler ~high_water:10 ~shards:1 () in
  let catalog = Demo.catalog 5 in
  let accepted = ref 0 and sheds = ref [] in
  Array.iter
    (fun request ->
      match Shard.submit front request with
      | `Queued _ -> incr accepted
      | `Shed s -> sheds := s :: !sheds)
    catalog;
  Alcotest.(check int) "queue capacity admits 2" 2 !accepted;
  Alcotest.(check int) "rest shed" 3 (List.length !sheds);
  List.iter
    (fun (s : Shard.shed) ->
      Alcotest.(check bool) "typed reason" true (s.Shard.reason = Shard.Shard_queue_full);
      Alcotest.(check int) "routed shard" 0 s.Shard.shard;
      Alcotest.(check int) "limit echoed" 2 s.Shard.limit)
    !sheds;
  (* Shedding never sinks the front: the accepted work still drains. *)
  Alcotest.(check int) "accepted work drains" 2 (List.length (Shard.drain front));
  let stats = Shard.stats front in
  Alcotest.(check int) "shed counted" 3 stats.Shard.shed.(0);
  Alcotest.(check int) "no front-level sheds" 0 stats.Shard.shed_front

let test_shed_front_high_water () =
  let scheduler = { Scheduler.queue_capacity = 100; batch_size = 8 } in
  let front = Demo.front ~rows:20 ~scheduler ~high_water:3 ~shards:2 () in
  let catalog = Demo.catalog 6 in
  let accepted = ref 0 and sheds = ref [] in
  Array.iter
    (fun request ->
      match Shard.submit front request with
      | `Queued _ -> incr accepted
      | `Shed s -> sheds := s :: !sheds)
    catalog;
  Alcotest.(check int) "high water admits 3" 3 !accepted;
  Alcotest.(check int) "rest shed at the front" 3 (List.length !sheds);
  List.iter
    (fun (s : Shard.shed) ->
      Alcotest.(check bool) "typed reason" true (s.Shard.reason = Shard.Front_high_water);
      Alcotest.(check int) "limit echoed" 3 s.Shard.limit;
      Alcotest.(check int) "depth is the aggregate outstanding" 3 s.Shard.depth)
    !sheds;
  let stats = Shard.stats front in
  Alcotest.(check int) "front-level sheds counted" 3 stats.Shard.shed_front;
  Alcotest.(check int) "outstanding tracks accepted" 3 stats.Shard.outstanding;
  Alcotest.(check int) "drain delivers the accepted 3" 3 (List.length (Shard.drain front));
  Alcotest.(check int) "drained front is empty" 0 (Shard.stats front).Shard.outstanding

(* A malformed request raises whatever the front's load: validation runs
   with the routing fingerprint, before the high-water check, so a full
   front never turns it into a shed. *)
let test_malformed_raises_under_load () =
  let front = Demo.front ~rows:20 ~high_water:1 ~shards:2 () in
  let ok = (Demo.catalog 1).(0) in
  let bad = { ok with Server.model = "sbp"; kind = Server.Mcdb_mean { reps = 1 } } in
  let raises label =
    match Shard.submit front bad with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument _ -> ()
  in
  raises "empty front";
  (match Shard.submit front ok with
  | `Queued _ -> ()
  | `Shed _ -> Alcotest.fail "the first valid request is admitted");
  raises "one request queued";
  Alcotest.(check int) "no front-level sheds" 0 (Shard.stats front).Shard.shed_front;
  Alcotest.(check int) "the valid request drains" 1 (List.length (Shard.drain front))

(* --- federation --- *)

let test_federation_prefers_bundle_then_stays_identical () =
  let front = Demo.front ~rows:40 ~shards:2 () in
  let single = Demo.server ~rows:40 () in
  let request seed =
    { Server.model = "sbp_any"; kind = Server.Mcdb_mean { reps = 16 }; seed; deadline = None }
  in
  Alcotest.(check string) "static preference: bundle plan first" "sbp_bundle"
    (Shard.backend_for front (request 1));
  (* Whatever backend the catalog picks as costs accrue, the answer is
     bit-identical to the naive single-server path. *)
  for seed = 1 to 6 do
    let direct =
      match Server.serve single { (request seed) with Server.model = "sbp" } with
      | `Served a -> a
      | `Rejected -> Alcotest.fail "direct serve rejected"
    in
    match Shard.serve front (request seed) with
    | `Served b ->
      Alcotest.(check bool) "federated bits == direct naive bits" true
        (responses_identical direct b)
    | `Shed _ -> Alcotest.fail "federated serve shed"
  done;
  let backend = Shard.backend_for front (request 99) in
  Alcotest.(check bool) "resolves to a registered backend" true
    (backend = "sbp_bundle" || backend = "sbp")

let test_federated_fingerprint_pinned_to_primary () =
  let front = Demo.front ~rows:20 ~shards:4 () in
  let request model =
    { Server.model; kind = Server.Mcdb_mean { reps = 16 }; seed = 7; deadline = None }
  in
  Alcotest.(check string) "fingerprint is the primary backend's"
    (Shard.fingerprint front (request "sbp_bundle"))
    (Shard.fingerprint front (request "sbp_any"));
  Alcotest.(check int) "so the shard never moves with backend choice"
    (Shard.shard_of front (request "sbp_bundle"))
    (Shard.shard_of front (request "sbp_any"))

(* Routing hashes the bytes of [Shard.fingerprint], so they are pinned:
   the digest of every fingerprint of the demo catalog (as addressed and
   with its MCDB requests sent to the federated name) and the shard each
   request lands on in a 4-shard front. A change to those bytes moves
   requests off the shards whose caches they warmed. *)
let test_routing_keys_pinned () =
  let front = Demo.front ~shards:4 () in
  let catalog = Demo.catalog 300 in
  let federated =
    Array.map
      (fun (r : Server.request) ->
        match r.Server.model with
        | "sbp" | "sbp_bundle" -> { r with Server.model = "sbp_any" }
        | _ -> r)
      catalog
  in
  let digest requests =
    Array.to_list (Array.map (Shard.fingerprint front) requests)
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let shards requests =
    String.concat ""
      (Array.to_list (Array.map (fun r -> string_of_int (Shard.shard_of front r)) requests))
  in
  Alcotest.(check string) "fingerprint digest" "e97cbae8f9b03399f7047d81fcdce107"
    (digest catalog);
  Alcotest.(check string) "federated fingerprint digest" "0ebcac27c0680f6f0e724ac3ec6fc81d"
    (digest federated);
  Alcotest.(check string) "shard_of"
    "122133103223200011213121031010013100221211031233222321213022220201102323202233223022200122330232021202310222203001102331323131312031033202010002001012\
     300001022320313031200021222303022212110003222033311323002301201332213013122311220011210321111100223310001032031101022330331122303203222211130101330102"
    (shards catalog);
  Alcotest.(check string) "federated shard_of"
    "012132303203200021213321033010033103121222031313222321213022100203202312202113223022213122300230321200310112203301131331233133312002033212013302001012\
     330002322303313201203021211303222212310002222033313023023301211332213003122131221111213321001103123330001132032101012330131121003230222311130101302102"
    (shards federated)

let test_federate_validation () =
  let front = Demo.front ~rows:20 ~shards:2 () in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "empty backend list" (fun () -> Shard.federate front ~name:"f" ~backends:[]);
  raises "unknown backend" (fun () -> Shard.federate front ~name:"f" ~backends:[ "nope" ]);
  raises "incompatible backends" (fun () ->
      Shard.federate front ~name:"f" ~backends:[ "sbp"; "walk" ]);
  raises "name already taken" (fun () ->
      Shard.federate front ~name:"sbp_any" ~backends:[ "sbp" ]);
  raises "unknown model in submit" (fun () ->
      ignore
        (Shard.submit front
           { Server.model = "ghost"; kind = Server.Mcdb_mean { reps = 4 }; seed = 1;
             deadline = None }))

(* --- open loop --- *)

let ticking step =
  let t = ref 0. in
  fun () ->
    t := !t +. step;
    !t

let test_open_loop_accounting_and_determinism () =
  let run () =
    let front = Demo.front ~clock:(ticking 1e-4) ~rows:20 ~shards:2 () in
    Workload.run_open ~clock:(ticking 1e-4) (Target.of_shard front)
      ~catalog:(Demo.catalog 8)
      { Workload.arrivals = 30; rate = 50.; zipf_s = 1.1; seed = 13 }
  in
  let report, responses = run () in
  Alcotest.(check int) "offered echoed" 30 report.Workload.offered;
  Alcotest.(check int) "served + shed = offered" 30
    (report.Workload.served + report.Workload.shed);
  let filled =
    Array.fold_left (fun n -> function Some _ -> n + 1 | None -> n) 0 responses
  in
  Alcotest.(check int) "one response slot per served arrival" report.Workload.served
    filled;
  Alcotest.(check bool) "p99 finite when something was served" true
    (report.Workload.served = 0 || Float.is_finite report.Workload.p99);
  (* Same seed, fresh front and clocks: the identical arrival process
     produces bit-identical estimates. *)
  let report2, responses2 = run () in
  Alcotest.(check int) "deterministic served count" report.Workload.served
    report2.Workload.served;
  Array.iteri
    (fun i r ->
      match (r, responses2.(i)) with
      | Some a, Some b ->
        Alcotest.(check bool) "deterministic response bits" true
          (responses_identical a b)
      | None, None -> ()
      | _ -> Alcotest.fail "the two runs served different arrival sets")
    responses

let test_open_loop_validation () =
  let front = Demo.front ~rows:20 ~shards:1 () in
  let target = Target.of_shard front in
  let catalog = Demo.catalog 4 in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "empty catalog" (fun () ->
      Workload.run_open target ~catalog:[||]
        { Workload.arrivals = 1; rate = 1.; zipf_s = 1.; seed = 0 });
  raises "zero arrivals" (fun () ->
      Workload.run_open target ~catalog
        { Workload.arrivals = 0; rate = 1.; zipf_s = 1.; seed = 0 });
  raises "non-positive rate" (fun () ->
      Workload.run_open target ~catalog
        { Workload.arrivals = 1; rate = 0.; zipf_s = 1.; seed = 0 })

(* --- shutdown --- *)

(* The satellite bugfix: completions banked in [stashed] after a
   drain-time exception used to be silently lost if the scheduler was
   dropped before the next drain. [shutdown] must deliver them, count
   never-executed work as abandoned, and refuse further submissions. *)
let test_scheduler_shutdown_delivers_banked () =
  let sched = Scheduler.create { Scheduler.queue_capacity = 8; batch_size = 1 } in
  let accept label closure =
    match Scheduler.submit sched ~class_key:label closure with
    | `Accepted ticket -> ticket
    | `Rejected -> Alcotest.fail "submission rejected"
  in
  let ta = accept "a" (fun ~time_left:_ -> 1) in
  let _tb = accept "b" (fun ~time_left:_ -> failwith "boom") in
  let _tc = accept "c" (fun ~time_left:_ -> 3) in
  (match Scheduler.drain sched with
  | _ -> Alcotest.fail "drain should propagate the closure's exception"
  | exception Failure _ -> ());
  (* [a] completed before the failing batch and sits banked; [c] was
     never executed. *)
  let banked = Scheduler.shutdown sched in
  Alcotest.(check (list int)) "banked completion delivered" [ ta ]
    (List.map (fun (c : int Scheduler.completion) -> c.Scheduler.ticket) banked);
  Alcotest.(check (list int)) "with its result" [ 1 ]
    (List.map (fun (c : int Scheduler.completion) -> c.Scheduler.result) banked);
  let counters = Scheduler.counters sched in
  Alcotest.(check int) "unexecuted work counted abandoned" 1
    counters.Scheduler.abandoned;
  Alcotest.(check int) "failed closure counted failed" 1 counters.Scheduler.failed;
  Alcotest.(check int) "nothing left pending" 0 (Scheduler.pending sched);
  Alcotest.(check (list int)) "second shutdown is empty" []
    (List.map
       (fun (c : int Scheduler.completion) -> c.Scheduler.ticket)
       (Scheduler.shutdown sched));
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Scheduler.submit: scheduler is shut down") (fun () ->
      ignore (Scheduler.submit sched ~class_key:"a" (fun ~time_left:_ -> 0)))

let test_server_shutdown_delivers_ready_hits () =
  let server = Demo.server ~rows:20 () in
  let request =
    { Server.model = "sbp"; kind = Server.Mcdb_mean { reps = 8 }; seed = 4; deadline = None }
  in
  let first =
    match Server.serve server request with
    | `Served r -> r
    | `Rejected -> Alcotest.fail "serve rejected"
  in
  (match Server.submit server request with
  | `Queued _ -> ()
  | `Rejected -> Alcotest.fail "hit submission rejected");
  (match Server.shutdown server with
  | [ (_, r) ] ->
    Alcotest.(check bool) "pending cache hit delivered at shutdown" true
      (r.Server.cache = Server.Hit && responses_identical first r)
  | other -> Alcotest.failf "expected one response, got %d" (List.length other));
  (* A cache hit never reaches the scheduler, so only cache-missing
     submissions observe the closed state. *)
  Alcotest.check_raises "cache-missing submit after shutdown"
    (Invalid_argument "Scheduler.submit: scheduler is shut down") (fun () ->
      ignore (Server.submit server { request with Server.seed = 5 }))

let test_front_shutdown () =
  let front = Demo.front ~rows:20 ~shards:2 () in
  let catalog = Demo.catalog 4 in
  Array.iter (fun r -> ignore (Shard.serve front r)) catalog;
  (* Re-submit the whole catalog: every response is now a pending cache
     hit, deliverable without executing queued work. *)
  Array.iter
    (fun r ->
      match Shard.submit front r with
      | `Queued _ -> ()
      | `Shed _ -> Alcotest.fail "warm resubmission shed")
    catalog;
  Alcotest.(check int) "shutdown delivers all pending hits" (Array.length catalog)
    (List.length (Shard.shutdown front));
  Alcotest.(check int) "outstanding zero after shutdown" 0
    (Shard.stats front).Shard.outstanding

(* A raising model ends its own request and nothing else: the front
   drains every shard, banks the responses the other shards settled,
   releases the failed request from its high-water count, and
   re-raises. Shard 0 drains before the raising shard 1, and shard 3
   after it. *)
let test_raising_model_loses_nothing () =
  let front = Shard.create ~shards:4 ~high_water:6 () in
  Shard.register_composite front ~name:"ok"
    {
      Mde_composite.Result_cache.model1 = (fun rng -> Rng.float rng);
      model2 = (fun rng x -> x +. Rng.float rng);
    };
  Shard.register_composite front ~name:"bad"
    {
      Mde_composite.Result_cache.model1 = (fun _ -> failwith "bad model");
      model2 = (fun _ x -> x);
    };
  let request model seed =
    { Server.model; kind = Server.Composite_estimate { n = 4; alpha = 0.5 }; seed; deadline = None }
  in
  (* the first seeds placing a request of [model] on [shard] *)
  let on_shard model shard ~from =
    let rec go seed =
      if Shard.shard_of front (request model seed) = shard then seed else go (seed + 1)
    in
    go from
  in
  let submit r =
    match Shard.submit front r with
    | `Queued id -> id
    | `Shed _ -> Alcotest.fail "submission shed"
  in
  let s3 = on_shard "ok" 3 ~from:0 in
  let oks =
    List.map
      (fun seed -> submit (request "ok" seed))
      [ on_shard "ok" 0 ~from:0; on_shard "ok" 1 ~from:0; s3; on_shard "ok" 3 ~from:(s3 + 1) ]
  in
  ignore (submit (request "bad" (on_shard "bad" 1 ~from:0)));
  (match Shard.drain front with
  | _ -> Alcotest.fail "the raising model's drain should raise"
  | exception Failure _ -> ());
  let st = Shard.stats front in
  Alcotest.(check int) "shard 0 settled its response" 1 st.Shard.servers.(0).Server.served;
  Alcotest.(check int) "the failed request left the front" 4 st.Shard.outstanding;
  let delivered = Shard.drain front in
  Alcotest.(check (list int)) "every accepted ok request delivered once" oks
    (List.map fst delivered);
  Alcotest.(check int) "nothing outstanding" 0 (Shard.stats front).Shard.outstanding;
  (* the full high-water headroom is back *)
  let again = List.init 6 (fun k -> submit (request "ok" (1000 + k))) in
  Alcotest.(check (list int)) "a full front's worth delivered" again
    (List.map fst (Shard.drain front));
  Alcotest.(check int) "front empty again" 0 (Shard.stats front).Shard.outstanding;
  (* work a shutdown abandons leaves the books too *)
  ignore (submit (request "ok" 2000));
  Alcotest.(check (list int)) "queued work is not run at shutdown" []
    (List.map fst (Shard.shutdown front));
  Alcotest.(check int) "abandoned work released" 0 (Shard.stats front).Shard.outstanding

(* --- metrics --- *)

let test_shard_metrics_registered () =
  let registry = Mde_obs.create () in
  Mde_obs.set_default registry;
  let front = Demo.front ~rows:20 ~shards:2 () in
  Mde_obs.set_default Mde_obs.noop;
  Array.iter (fun r -> ignore (Shard.serve front r)) (Demo.catalog 6);
  let text = Mde_obs.Export.prometheus registry in
  List.iter
    (fun metric ->
      let present =
        (* substring search *)
        let n = String.length text and m = String.length metric in
        let rec scan i = i + m <= n && (String.sub text i m = metric || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (metric ^ " exported") true present)
    [
      "mde_shard_routed_total"; "mde_shard_shed_total"; "mde_shard_depth";
      "mde_shard_outstanding"; "mde_shard_imbalance";
    ]

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          Alcotest.test_case "zero shards rejected" `Quick test_router_validation;
          Alcotest.test_case "one shard takes everything" `Quick test_router_one_shard;
          Alcotest.test_case "route = weight argmax" `Quick
            test_router_matches_weight_argmax;
          Alcotest.test_case "deterministic, in range" `Quick
            test_router_deterministic_and_bounded;
          Alcotest.test_case "growth remaps <= 2K/N, onto the new shard" `Quick
            test_router_growth_remaps_few;
        ] );
      ( "front",
        [
          Alcotest.test_case "sharded == single shard (bit-identical)" `Quick
            test_sharded_equals_single;
          Alcotest.test_case "same fingerprint, same shard" `Quick
            test_same_fingerprint_same_shard;
          Alcotest.test_case "shard queue full: typed shed" `Quick
            test_shed_shard_queue_full;
          Alcotest.test_case "front high water: typed shed" `Quick
            test_shed_front_high_water;
          Alcotest.test_case "malformed request raises under load" `Quick
            test_malformed_raises_under_load;
          Alcotest.test_case "shard metrics exported" `Quick
            test_shard_metrics_registered;
        ] );
      ( "federation",
        [
          Alcotest.test_case "bundle preferred, bits identical" `Quick
            test_federation_prefers_bundle_then_stays_identical;
          Alcotest.test_case "fingerprint pinned to primary" `Quick
            test_federated_fingerprint_pinned_to_primary;
          Alcotest.test_case "routing keys pinned" `Quick test_routing_keys_pinned;
          Alcotest.test_case "validation" `Quick test_federate_validation;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "accounting and determinism" `Quick
            test_open_loop_accounting_and_determinism;
          Alcotest.test_case "validation" `Quick test_open_loop_validation;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "scheduler delivers banked completions" `Quick
            test_scheduler_shutdown_delivers_banked;
          Alcotest.test_case "server delivers ready hits" `Quick
            test_server_shutdown_delivers_ready_hits;
          Alcotest.test_case "front-wide shutdown" `Quick test_front_shutdown;
          Alcotest.test_case "raising model loses nothing" `Quick
            test_raising_model_loses_nothing;
        ] );
    ]
