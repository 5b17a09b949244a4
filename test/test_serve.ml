(* The serving layer: cache bookkeeping (LRU order, TTL expiry, exact
   counters), fingerprint collision-freedom, scheduler backpressure, the
   deadline-degradation contract, and the headline determinism guarantee
   — a served response is bit-identical to the direct library call. *)

open Mde_relational
module Serve = Mde_serve
module Cache = Mde_serve.Cache
module Scheduler = Mde_serve.Scheduler
module Server = Mde_serve.Server
module Workload = Mde_serve.Workload
module Target = Mde_serve.Target
module Demo = Mde_serve.Demo
module Pool = Mde_par.Pool
module Rng = Mde_prob.Rng
module Database = Mde_mcdb.Database
module Est = Mde_mcdb.Estimator
module Chain = Mde_simsql.Chain
module Rc = Mde_composite.Result_cache

(* --- cache --- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:3 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  ignore (Cache.find c "a");
  (* [b] is now least recently used; a fourth insert evicts it. *)
  Cache.add c "d" 4;
  Alcotest.(check (list string)) "MRU order" [ "d"; "a"; "c" ] (Cache.keys_mru_first c);
  Alcotest.(check bool) "b evicted" false (Cache.mem c "b");
  Alcotest.(check bool) "a kept" true (Cache.mem c "a");
  Alcotest.(check int) "one eviction" 1 (Cache.counters c).Cache.evictions

let test_cache_ttl () =
  let now = ref 0. in
  let c = Cache.create ~capacity:4 ~ttl:10. ~clock:(fun () -> !now) () in
  Cache.add c "k" 1;
  now := 5.;
  Alcotest.(check (option int)) "young entry hits" (Some 1) (Cache.find c "k");
  now := 20.;
  Alcotest.(check (option int)) "expired entry misses" None (Cache.find c "k");
  let ctr = Cache.counters c in
  Alcotest.(check int) "one expiration" 1 ctr.Cache.expirations;
  Alcotest.(check int) "expiry counted as a miss" 1 ctr.Cache.misses;
  Alcotest.(check bool) "expired entry removed" false (Cache.mem c "k")

let test_cache_counters () =
  let c = Cache.create ~capacity:2 () in
  Alcotest.(check (option int)) "cold miss" None (Cache.find c "x");
  ignore (Cache.find c "y");
  Cache.add c "x" 7;
  ignore (Cache.find c "x");
  ignore (Cache.find c "x");
  ignore (Cache.find c "x");
  Cache.add c ~admit:false "z" 9;
  let ctr = Cache.counters c in
  Alcotest.(check int) "hits" 3 ctr.Cache.hits;
  Alcotest.(check int) "misses" 2 ctr.Cache.misses;
  Alcotest.(check int) "evictions" 0 ctr.Cache.evictions;
  Alcotest.(check int) "expirations" 0 ctr.Cache.expirations;
  Alcotest.(check int) "admission rejections" 1 ctr.Cache.admission_rejections;
  Alcotest.(check bool) "rejected entry absent" false (Cache.mem c "z");
  Alcotest.(check (float 1e-12)) "hit rate" 0.6 (Cache.hit_rate c)

(* Counter totals must not depend on which probe notices an expiry:
   [mem] and [find] each delete an expired entry and count one
   expiration, and only [find] adds a miss. *)
let test_cache_expiry_counter_parity () =
  let probe first =
    let now = ref 0. in
    let c = Cache.create ~capacity:4 ~ttl:10. ~clock:(fun () -> !now) () in
    Cache.add c "k" 1;
    now := 20.;
    (match first with
    | `Mem_then_find ->
      Alcotest.(check bool) "mem sees expiry" false (Cache.mem c "k");
      Alcotest.(check (option int)) "find then misses" None (Cache.find c "k")
    | `Find_then_mem ->
      Alcotest.(check (option int)) "find sees expiry" None (Cache.find c "k");
      Alcotest.(check bool) "mem then misses" false (Cache.mem c "k"));
    Cache.counters c
  in
  let a = probe `Mem_then_find and b = probe `Find_then_mem in
  Alcotest.(check int) "expirations agree" a.Cache.expirations b.Cache.expirations;
  Alcotest.(check int) "one expiration either way" 1 a.Cache.expirations;
  Alcotest.(check int) "misses agree" a.Cache.misses b.Cache.misses;
  Alcotest.(check int) "one miss either way" 1 a.Cache.misses;
  Alcotest.(check int) "mem removed the dead entry" 0
    (let now = ref 0. in
     let c = Cache.create ~capacity:4 ~ttl:10. ~clock:(fun () -> !now) () in
     Cache.add c "k" 1;
     now := 20.;
     ignore (Cache.mem c "k");
     Cache.length c)

let test_cache_add_counts_expired_tail_as_expiration () =
  let now = ref 0. in
  let c = Cache.create ~capacity:2 ~ttl:10. ~clock:(fun () -> !now) () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* Both entries are past their TTL when the capacity displacement
     happens: dropping the dead tail is an expiration, not an LRU
     eviction. *)
  now := 20.;
  Cache.add c "c" 3;
  let ctr = Cache.counters c in
  Alcotest.(check int) "no eviction charged" 0 ctr.Cache.evictions;
  Alcotest.(check int) "expiration charged" 1 ctr.Cache.expirations;
  (* Refresh [b] so the tail is live again: a live tail displaced at
     capacity is still an eviction. *)
  Cache.add c "b" 5;
  Cache.add c "d" 4;
  let ctr = Cache.counters c in
  Alcotest.(check int) "live tail evicts" 1 ctr.Cache.evictions;
  Alcotest.(check int) "expirations unchanged" 1 ctr.Cache.expirations

let test_cache_pays_off () =
  (* A popular class (most requests exact repeats) pays off; a class
     that never repeats does not. *)
  let popular =
    Cache.class_statistics ~compute_cost:0.1 ~serve_cost:0.001 ~result_variance:1.0
      ~repeat_fraction:0.9
  in
  let unpopular =
    Cache.class_statistics ~compute_cost:0.1 ~serve_cost:0.001 ~result_variance:1.0
      ~repeat_fraction:0.
  in
  Alcotest.(check bool) "repeats admit" true (Cache.pays_off popular);
  Alcotest.(check bool) "no repeats reject" false (Cache.pays_off unpopular)

(* The running variance both the server's classes and a session's
   streams feed admission with: the two-pass sample variance, and 0
   below two results. *)
let test_cache_variance_tracker () =
  let v = Cache.variance_tracker () in
  Alcotest.(check (float 0.)) "nothing tracked" 0. (Cache.sample_variance v);
  Cache.track v 3.;
  Alcotest.(check (float 0.)) "one result" 0. (Cache.sample_variance v);
  let xs = [| 3.; 1.5; -2.; 8.25; 0.125; 4. |] in
  Array.iteri (fun i x -> if i > 0 then Cache.track v x) xs;
  Alcotest.(check (float 1e-12)) "two-pass variance" (Mde_prob.Stats.variance xs)
    (Cache.sample_variance v)

(* --- fixtures mirroring the direct library calls --- *)

let sbp_db rows =
  let patients =
    Table.create
      (Schema.of_list [ ("pid", Value.Tint); ("gender", Value.Tstring) ])
      (List.init rows (fun i ->
           [| Value.Int i; Value.String (if i mod 2 = 0 then "F" else "M") |]))
  in
  let param =
    Table.create
      (Schema.of_list [ ("mean", Value.Tfloat); ("std", Value.Tfloat) ])
      [ [| Value.Float 120.; Value.Float 15. |] ]
  in
  let st =
    Mde_mcdb.Stochastic_table.define ~name:"SBP_DATA"
      ~schema:
        (Schema.of_list
           [ ("pid", Value.Tint); ("gender", Value.Tstring); ("sbp", Value.Tfloat) ])
      ~driver:patients ~vg:Mde_mcdb.Vg.normal
      ~params:(fun _ -> [ param ])
      ~combine:(fun d v -> [| d.(0); d.(1); v.(0) |])
  in
  let db = Database.create () in
  Database.add_stochastic db st;
  db

(* The hand-rolled row fold: the query the direct-call tests serve, and
   the row-level oracle the demo's columnar [Demo.mean_sbp] must match
   bit for bit. *)
let sbp_query catalog =
  let t = Catalog.find catalog "SBP_DATA" in
  let total = ref 0. and n = ref 0 in
  Table.iter
    (fun row ->
      total := !total +. Value.to_float row.(2);
      incr n)
    t;
  !total /. float_of_int !n

let walk_chain () =
  let schema = Schema.of_list [ ("x", Value.Tfloat) ] in
  let table x = Table.create schema [ [| Value.Float x |] ] in
  let current state = Value.to_float (Table.rows (Chain.table state "X")).(0).(0) in
  ( {
      Chain.initial = (fun _rng -> Chain.state_of_tables [ ("X", table 0.) ]);
      transition =
        (fun rng state ->
          Chain.with_table state "X" (table (current state +. Rng.float rng -. 0.5)));
    },
    current )

let two_stage =
  { Rc.model1 = (fun rng -> 10. *. Rng.float rng); model2 = (fun rng y1 -> y1 +. Rng.float rng) }

let make_server ?pool ?clock ?scheduler ?admission db =
  let t = Server.create ?pool ?clock ?scheduler ?admission () in
  Server.register_mcdb t ~name:"sbp" ~query:sbp_query db;
  let chain, current = walk_chain () in
  Server.register_chain t ~name:"walk" ~query:current chain;
  Server.register_composite t ~name:"queue" two_stage;
  t

let req ?deadline model kind seed = { Server.model; kind; seed; deadline }

(* --- fingerprints --- *)

let test_fingerprint_collision_free () =
  let t = make_server (sbp_db 10) in
  let requests =
    List.concat
      [
        List.concat_map
          (fun reps ->
            List.map (fun seed -> req "sbp" (Server.Mcdb_mean { reps }) seed) [ 0; 1; 2 ])
          [ 2; 3; 10 ];
        List.concat_map
          (fun p ->
            List.map (fun seed -> req "sbp" (Server.Mcdb_tail { reps = 64; p }) seed) [ 0; 1 ])
          [ 0.9; 0.95 ];
        List.concat_map
          (fun steps ->
            List.map (fun reps -> req "walk" (Server.Chain_mean { steps; reps }) 0) [ 2; 3 ])
          [ 1; 2 ];
        List.concat_map
          (fun n ->
            List.map
              (fun alpha -> req "queue" (Server.Composite_estimate { n; alpha }) 0)
              [ 0.25; 0.5 ])
          [ 2; 4 ];
      ]
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let fp = Server.fingerprint t r in
      Alcotest.(check string) "fingerprint is stable" fp (Server.fingerprint t r);
      (match Hashtbl.find_opt seen fp with
      | Some () -> Alcotest.failf "fingerprint collision: %s" fp
      | None -> ());
      Hashtbl.add seen fp ())
    requests;
  Alcotest.(check int) "all distinct" (List.length requests) (Hashtbl.length seen)

(* A refinement key names a replication stream: requests differing
   only in their replication count share it, any other parameter, the
   seed or the model separates them. *)
let test_refinement_key_classes () =
  let t = make_server (sbp_db 10) in
  let key = Server.refinement_key t in
  let same name a b = Alcotest.(check string) name (key a) (key b) in
  let differ name a b =
    Alcotest.(check bool) name false (String.equal (key a) (key b))
  in
  let mean reps seed = req "sbp" (Server.Mcdb_mean { reps }) seed in
  let tail reps p = req "sbp" (Server.Mcdb_tail { reps; p }) 0 in
  let chain steps reps = req "walk" (Server.Chain_mean { steps; reps }) 0 in
  let rc n alpha = req "queue" (Server.Composite_estimate { n; alpha }) 0 in
  same "mean reps" (mean 8 1) (mean 32 1);
  differ "mean seed" (mean 8 1) (mean 8 2);
  same "tail reps" (tail 20 0.9) (tail 64 0.9);
  differ "tail p" (tail 20 0.9) (tail 20 0.95);
  differ "mean vs tail" (mean 20 0) (tail 20 0.9);
  same "chain reps" (chain 3 2) (chain 3 9);
  differ "chain steps" (chain 3 2) (chain 4 2);
  same "composite n" (rc 4 0.5) (rc 16 0.5);
  differ "composite alpha" (rc 4 0.5) (rc 4 0.25)

(* --- determinism: served == direct library call --- *)

let get_served = function
  | `Served (r : Server.response) -> r
  | `Rejected -> Alcotest.fail "request rejected unexpectedly"

let check_pair = Alcotest.(check (pair (float 0.) (float 0.)))

(* [Server.estimate] is the one estimator: the mean kinds are
   [Estimator.of_samples], the tail kind [Estimator.tail_estimate], and
   a composite is not a reduction of samples. *)
let test_estimate_is_the_estimator () =
  let xs = Array.init 40 (fun i -> Float.of_int ((i * 7919) mod 97) /. 13.) in
  let est = Est.of_samples xs in
  let value, ci = Server.estimate (Server.Chain_mean { steps = 1; reps = 40 }) xs in
  Alcotest.(check (float 0.)) "mean" est.Est.mean value;
  check_pair "mean ci" est.Est.ci95 (Option.get ci);
  let q, qci = Est.tail_estimate xs ~p:0.9 ~level:0.95 in
  let value, ci = Server.estimate (Server.Mcdb_tail { reps = 40; p = 0.9 }) xs in
  Alcotest.(check (float 0.)) "tail" q value;
  check_pair "tail ci" qci (Option.get ci);
  Alcotest.check_raises "composite"
    (Invalid_argument "Server.estimate: a composite estimate is not a reduction of samples")
    (fun () -> ignore (Server.estimate (Server.Composite_estimate { n = 40; alpha = 0.5 }) xs))

let test_served_equals_direct () =
  let db = sbp_db 40 in
  let chain, _ = walk_chain () in
  let mean_direct = Database.estimate db (Rng.create ~seed:11 ()) ~reps:24 ~query:sbp_query in
  let tail_samples =
    Database.monte_carlo db (Rng.create ~seed:12 ()) ~reps:20 ~query:sbp_query
  in
  let chain_direct =
    let series = Chain.monte_carlo chain (Rng.create ~seed:13 ()) ~steps:5 ~reps:12 ~query:(fun
        state -> Value.to_float (Table.rows (Chain.table state "X")).(0).(0))
    in
    Est.of_samples (Array.map (fun row -> row.(5)) series)
  in
  let rc_direct = Rc.estimate two_stage (Rng.create ~seed:14 ()) ~n:16 ~alpha:0.5 in
  Pool.with_pool ~domains:3 (fun pool ->
      let t = make_server ~pool db in
      (* Submit the four kinds plus same-class neighbours so the batcher
         actually groups work, then drain them all at once. *)
      let submit r =
        match Server.submit t r with
        | `Queued id -> id
        | `Rejected -> Alcotest.fail "rejected"
      in
      let id_mean = submit (req "sbp" (Server.Mcdb_mean { reps = 24 }) 11) in
      let _ = submit (req "sbp" (Server.Mcdb_mean { reps = 24 }) 99) in
      let id_tail = submit (req "sbp" (Server.Mcdb_tail { reps = 20; p = 0.9 }) 12) in
      let id_chain = submit (req "walk" (Server.Chain_mean { steps = 5; reps = 12 }) 13) in
      let id_rc = submit (req "queue" (Server.Composite_estimate { n = 16; alpha = 0.5 }) 14) in
      let responses = Server.drain t in
      let find id = List.assoc id responses in
      let r_mean = find id_mean in
      Alcotest.(check (float 0.)) "mcdb mean" mean_direct.Est.mean r_mean.Server.value;
      check_pair "mcdb ci95" mean_direct.Est.ci95 (Option.get r_mean.Server.ci95);
      let r_tail = find id_tail in
      Alcotest.(check (float 0.)) "mcdb tail quantile"
        (Est.extreme_quantile tail_samples 0.9)
        r_tail.Server.value;
      check_pair "tail ci" (Est.quantile_ci tail_samples 0.9 0.95)
        (Option.get r_tail.Server.ci95);
      let r_chain = find id_chain in
      Alcotest.(check (float 0.)) "chain mean" chain_direct.Est.mean r_chain.Server.value;
      let r_rc = find id_rc in
      Alcotest.(check (float 0.)) "composite theta" rc_direct.Rc.theta_hat r_rc.Server.value;
      (* Served again: a cache hit with the identical bits. *)
      let again = get_served (Server.serve t (req "sbp" (Server.Mcdb_mean { reps = 24 }) 11)) in
      Alcotest.(check bool) "second serve hits" true (again.Server.cache = Server.Hit);
      Alcotest.(check (float 0.)) "cached bits identical" mean_direct.Est.mean
        again.Server.value);
  (* And without a pool (sequential path): still the same bits. *)
  let t_seq = make_server db in
  let r = get_served (Server.serve t_seq (req "sbp" (Server.Mcdb_mean { reps = 24 }) 11)) in
  Alcotest.(check (float 0.)) "sequential serve identical" mean_direct.Est.mean
    r.Server.value

let test_backpressure () =
  let t =
    make_server ~scheduler:{ Scheduler.queue_capacity = 4; batch_size = 2 } (sbp_db 10)
  in
  let outcomes =
    List.init 6 (fun i -> Server.submit t (req "sbp" (Server.Mcdb_mean { reps = 4 }) i))
  in
  let accepted =
    List.length (List.filter (function `Queued _ -> true | `Rejected -> false) outcomes)
  in
  Alcotest.(check int) "high-water mark admits 4" 4 accepted;
  Alcotest.(check int) "2 rejected" 2 (Server.stats t).Server.rejected;
  Alcotest.(check int) "queue drains fully" 4 (List.length (Server.drain t))

exception Request_trouble

(* One raising request must not destroy accepted work: completions from
   earlier batches and from its own batch siblings survive the raise and
   come out of the next drain, the unprocessed remainder stays queued,
   and the counters account every item exactly once. *)
let test_drain_exception_preserves_accepted_work () =
  let s = Scheduler.create { Scheduler.queue_capacity = 16; batch_size = 2 } in
  let submit i =
    match
      Scheduler.submit s ~class_key:"k" (fun ~time_left:_ ->
          if i = 2 then raise Request_trouble else i * 10)
    with
    | `Accepted ticket -> ticket
    | `Rejected -> Alcotest.fail "submit rejected"
  in
  (* Batches of 2: [0;1] completes, [2;3] has the raiser (3 is its
     sibling), [4] is never dispatched. *)
  let tickets = List.init 5 submit in
  Alcotest.(check bool) "first drain raises" true
    (try
       ignore (Scheduler.drain s);
       false
     with Request_trouble -> true);
  let ctr = Scheduler.counters s in
  Alcotest.(check int) "completed counts survivors" 3 ctr.Scheduler.completed;
  Alcotest.(check int) "failed counts the raiser" 1 ctr.Scheduler.failed;
  Alcotest.(check int) "undispatched item still pending" 1 (Scheduler.pending s);
  (* The second drain delivers the banked completions plus the
     remainder, in ticket order. *)
  let completions = Scheduler.drain s in
  Alcotest.(check (list int)) "all accepted work delivered"
    [ List.nth tickets 0; List.nth tickets 1; List.nth tickets 3; List.nth tickets 4 ]
    (List.map (fun c -> c.Scheduler.ticket) completions);
  Alcotest.(check (list int)) "results intact" [ 0; 10; 30; 40 ]
    (List.map (fun c -> c.Scheduler.result) completions);
  let ctr = Scheduler.counters s in
  Alcotest.(check int) "completed settles at 4" 4 ctr.Scheduler.completed;
  Alcotest.(check int) "nothing left pending" 0 (Scheduler.pending s)

(* The default scheduler clock is wall time, so a request that sleeps in
   the queue past its deadline must see a negative budget at dispatch —
   and its completion latency must include the sleep. *)
let test_wall_clock_sees_sleep () =
  let s = Scheduler.create Scheduler.default_config in
  let observed = ref None in
  (match
     Scheduler.submit s ~class_key:"k" ~deadline:0.02 (fun ~time_left ->
         observed := time_left;
         0)
   with
  | `Accepted _ -> ()
  | `Rejected -> Alcotest.fail "submit rejected");
  Unix.sleepf 0.06;
  (match Scheduler.drain s with
  | [ c ] ->
    Alcotest.(check bool)
      (Printf.sprintf "latency %.3f includes the queue sleep" c.Scheduler.latency)
      true
      (c.Scheduler.latency >= 0.05)
  | _ -> Alcotest.fail "expected one completion");
  match !observed with
  | Some left ->
    Alcotest.(check bool)
      (Printf.sprintf "time_left %.3f negative after sleeping past the deadline" left)
      true (left < 0.)
  | None -> Alcotest.fail "deadline budget not forwarded"

(* The counterpart documents the bug this replaced: with CPU time
   injected, the same sleep burns no CPU, the clock stands still, and
   the blown deadline goes unnoticed. The [?clock] stays injectable, so
   the old behaviour is reproducible on demand. *)
let test_cpu_clock_misses_sleep () =
  let s = Scheduler.create ~clock:Sys.time Scheduler.default_config in
  let observed = ref None in
  ignore
    (Scheduler.submit s ~class_key:"k" ~deadline:0.02 (fun ~time_left ->
         observed := time_left;
         0));
  Unix.sleepf 0.06;
  ignore (Scheduler.drain s);
  match !observed with
  | Some left ->
    Alcotest.(check bool)
      (Printf.sprintf "CPU budget %.3f still positive: the sleep was invisible" left)
      true (left > 0.)
  | None -> Alcotest.fail "deadline budget not forwarded"

(* A clock that advances one unit per reading makes deadline arithmetic
   deterministic: any deadline under 1.0 is blown by dispatch time. *)
let ticking () =
  let t = ref 0. in
  fun () ->
    let v = !t in
    t := v +. 1.;
    v

let test_deadline_degradation () =
  let db = sbp_db 40 in
  let t = make_server ~clock:(ticking ()) db in
  let full = get_served (Server.serve t (req "sbp" (Server.Mcdb_mean { reps = 24 }) 5)) in
  Alcotest.(check bool) "full budget not degraded" false full.Server.degraded;
  Alcotest.(check int) "full reps" 24 full.Server.reps_executed;
  let degraded =
    get_served (Server.serve t (req ~deadline:0.5 "sbp" (Server.Mcdb_mean { reps = 24 }) 7))
  in
  Alcotest.(check bool) "blown deadline degrades" true degraded.Server.degraded;
  Alcotest.(check int) "degraded to the floor" 2 degraded.Server.reps_executed;
  Alcotest.(check int) "requested budget reported" 24 degraded.Server.reps_requested;
  (* The partial estimate is the direct call at the reduced budget... *)
  let direct_floor = Database.estimate db (Rng.create ~seed:7 ()) ~reps:2 ~query:sbp_query in
  Alcotest.(check (float 0.)) "partial estimate is the direct 2-rep call"
    direct_floor.Est.mean degraded.Server.value;
  check_pair "partial CI is the direct 2-rep CI" direct_floor.Est.ci95
    (Option.get degraded.Server.ci95);
  (* ...with the widened CI of 2 replications. *)
  let width (lo, hi) = hi -. lo in
  let direct_full = Database.estimate db (Rng.create ~seed:7 ()) ~reps:24 ~query:sbp_query in
  Alcotest.(check bool) "degraded CI wider" true
    (width (Option.get degraded.Server.ci95) > width direct_full.Est.ci95);
  (* Degraded results are never cached: a full-budget retry misses and
     recomputes the undegraded answer. *)
  let retry = get_served (Server.serve t (req "sbp" (Server.Mcdb_mean { reps = 24 }) 7)) in
  Alcotest.(check bool) "retry is a miss" true (retry.Server.cache = Server.Miss);
  Alcotest.(check bool) "retry not degraded" false retry.Server.degraded;
  Alcotest.(check (float 0.)) "retry serves the full answer" direct_full.Est.mean
    retry.Server.value;
  let cached = get_served (Server.serve t (req "sbp" (Server.Mcdb_mean { reps = 24 }) 7)) in
  Alcotest.(check bool) "full answer now cached" true (cached.Server.cache = Server.Hit)

(* The report's p50/p95/p99 come from [percentiles] (one sort); each
   element must be bit-identical to the per-call [percentile] path. *)
let test_workload_percentiles () =
  let rng = Rng.create ~seed:44 () in
  let xs = Array.init 237 (fun _ -> Rng.float rng *. 10.) in
  let qs = [| 0.; 0.25; 0.50; 0.95; 0.99; 1. |] in
  let ps = Workload.percentiles xs qs in
  Array.iteri
    (fun i q ->
      let expect = Workload.percentile xs q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f single-sort = per-call" q)
        true
        (Int64.equal (Int64.bits_of_float expect) (Int64.bits_of_float ps.(i))))
    qs;
  (* The empty-sample rejection is a real branch, not an assert, so it
     must hold under --profile noassert too. *)
  (match Workload.percentile [||] 0.5 with
  | _ -> Alcotest.fail "percentile on empty: expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Workload.percentiles [||] qs with
  | _ -> Alcotest.fail "percentiles on empty: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* "sbp_bundle" pushes the same query through the columnar bundle
   engine ([Database.plan_samples] with an Avg plan) that "sbp" answers
   with the naive instantiate-and-scan loop. Same seed, same reps: the
   served samples — hence value and CI — must be bit-identical. *)
let test_bundle_model_matches_naive_model () =
  let t = Demo.server ~rows:25 () in
  List.iter
    (fun (kind, seed) ->
      let naive = get_served (Server.serve t (req "sbp" kind seed)) in
      let bundle = get_served (Server.serve t (req "sbp_bundle" kind seed)) in
      Alcotest.(check (float 0.)) "value identical" naive.Server.value
        bundle.Server.value;
      check_pair "ci identical" (Option.get naive.Server.ci95)
        (Option.get bundle.Server.ci95);
      Alcotest.(check int) "same budget" naive.Server.reps_executed
        bundle.Server.reps_executed)
    [
      (Server.Mcdb_mean { reps = 24 }, 5);
      (Server.Mcdb_tail { reps = 40; p = 0.9 }, 6);
    ]

(* The demo's registered query runs on the columnar substrate; the
   hand-rolled row fold [sbp_query] is its oracle. Same realized instance →
   identical bits, so every served "sbp" answer is unchanged by the
   rewiring. *)
let test_demo_columnar_query_matches_rows () =
  let db = sbp_db 60 in
  let rng = Rng.create ~seed:21 () in
  for _ = 1 to 10 do
    let catalog = Database.instantiate db rng in
    Alcotest.(check bool) "columnar mean == row fold, bit for bit" true
      (Int64.bits_of_float (Demo.mean_sbp catalog)
      = Int64.bits_of_float (sbp_query catalog))
  done

let test_demo_cold_warm () =
  let server = Demo.server ~rows:30 () in
  let catalog = Demo.catalog 8 in
  let config = { Workload.requests = 48; concurrency = 4; zipf_s = 1.0; seed = 3 } in
  let cold, warm, verdict = Demo.cold_warm (Target.of_server server) ~catalog config in
  (match verdict with
  | `Identical n -> Alcotest.(check bool) "some requests compared" true (n > 0)
  | `Mismatch n -> Alcotest.failf "%d warm responses diverged from cold" n);
  Alcotest.(check bool) "warm hit rate strictly higher" true
    (warm.Workload.hit_rate > cold.Workload.hit_rate);
  Alcotest.(check int) "all requests served" config.Workload.requests
    cold.Workload.served

(* A server's state stays bounded under a stream of distinct requests:
   repeats are counted over a fixed window of recent fingerprints, the
   cache has a capacity and completions leave with [drain]. Live heap
   words after a full major collection must plateau between 100k and
   200k distinct-seed requests. *)
let test_state_bounded_under_distinct_requests () =
  let t = Server.create () in
  Server.register_composite t ~name:"queue" two_stage;
  let kind = Server.Composite_estimate { n = 2; alpha = 0.5 } in
  let live_after n0 n1 =
    for seed = n0 to n1 - 1 do
      match Server.serve t (req "queue" kind seed) with
      | `Served _ -> ()
      | `Rejected -> Alcotest.fail "request rejected"
    done;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let at_100k = live_after 0 100_000 in
  let at_200k = live_after 100_000 200_000 in
  (* Reading the server after the last sample keeps it live through it. *)
  Alcotest.(check int) "all served" 200_000 (Server.stats t).Server.served;
  let growth = float_of_int (at_200k - at_100k) /. float_of_int at_100k in
  Alcotest.(check bool)
    (Printf.sprintf "live words %d -> %d (%+.2f%%) within 5%%" at_100k at_200k (100. *. growth))
    true
    (Float.abs growth < 0.05)

let () =
  Alcotest.run "serve"
    [
      ( "cache",
        [
          Alcotest.test_case "LRU eviction order" `Quick test_cache_lru;
          Alcotest.test_case "TTL expiry" `Quick test_cache_ttl;
          Alcotest.test_case "exact counters" `Quick test_cache_counters;
          Alcotest.test_case "expiry counter parity (mem vs find)" `Quick
            test_cache_expiry_counter_parity;
          Alcotest.test_case "expired tail counts as expiration" `Quick
            test_cache_add_counts_expired_tail_as_expiration;
          Alcotest.test_case "cost-aware admission" `Quick test_cache_pays_off;
          Alcotest.test_case "variance tracker" `Quick test_cache_variance_tracker;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "collision-free over params" `Quick test_fingerprint_collision_free;
          Alcotest.test_case "refinement key classes" `Quick test_refinement_key_classes;
          Alcotest.test_case "one estimator" `Quick test_estimate_is_the_estimator;
        ] );
      ( "server",
        [
          Alcotest.test_case "served == direct (pooled, batched, cached)" `Quick
            test_served_equals_direct;
          Alcotest.test_case "backpressure" `Quick test_backpressure;
          Alcotest.test_case "drain preserves accepted work on exception" `Quick
            test_drain_exception_preserves_accepted_work;
          Alcotest.test_case "wall clock sees queue sleep" `Quick
            test_wall_clock_sees_sleep;
          Alcotest.test_case "CPU clock misses queue sleep" `Quick
            test_cpu_clock_misses_sleep;
          Alcotest.test_case "deadline degradation" `Quick test_deadline_degradation;
          Alcotest.test_case "workload percentiles = per-call" `Quick
            test_workload_percentiles;
          Alcotest.test_case "bundle model == naive model" `Quick
            test_bundle_model_matches_naive_model;
          Alcotest.test_case "demo columnar query == row fold" `Quick
            test_demo_columnar_query_matches_rows;
          Alcotest.test_case "cold vs warm workload" `Quick test_demo_cold_warm;
          Alcotest.test_case "state bounded under distinct requests" `Slow
            test_state_bounded_under_distinct_requests;
        ] );
    ]
