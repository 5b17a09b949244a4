(* Progressive-refinement sessions: the bit-identity contract (a
   converged handle holds exactly the one-shot bits, pooled or not,
   whatever order the planner interleaved batches in), watch callbacks
   firing exactly once per landed batch, exact budget accounting
   (fresh + reused = summed per-tick allocations, each tick capped by
   its configured budget), cached-pilot reuse between key-mates, and
   handles surviving a retarget to a resized shard front. *)

module Serve = Mde_serve
module Server = Mde_serve.Server
module Session = Mde_serve.Session
module Target = Mde_serve.Target
module Demo = Mde_serve.Demo
module Pool = Mde_par.Pool

let bits = Int64.bits_of_float

let same_float a b = Int64.equal (bits a) (bits b)

let same_ci a b =
  match (a, b) with
  | None, None -> true
  | Some (alo, ahi), Some (blo, bhi) -> same_float alo blo && same_float ahi bhi
  | _ -> false

(* One request per query kind, including the columnar bundle path. *)
let kind_requests ~seed =
  [
    { Server.model = "sbp"; kind = Server.Mcdb_mean { reps = 48 }; seed; deadline = None };
    {
      Server.model = "sbp_bundle";
      kind = Server.Mcdb_tail { reps = 64; p = 0.9 };
      seed = seed + 1;
      deadline = None;
    };
    {
      Server.model = "walk";
      kind = Server.Chain_mean { steps = 8; reps = 24 };
      seed = seed + 2;
      deadline = None;
    };
    {
      Server.model = "queue";
      kind = Server.Composite_estimate { n = 64; alpha = 0.25 };
      seed = seed + 3;
      deadline = None;
    };
  ]

let check_session_matches_oneshot ?pool ~planner () =
  let session_server = Demo.server ?pool ~rows:30 () in
  let session = Session.create ~planner (Target.of_server session_server) in
  let requests = kind_requests ~seed:7 in
  let handles = List.map (Session.open_query session) requests in
  let finals = Session.drive session in
  Alcotest.(check int) "one final update per handle" (List.length handles)
    (List.length finals);
  (* One-shot serves on a fresh server: nothing the session did can
     have warmed it, so the comparison is against a cold computation. *)
  let oneshot = Demo.server ?pool ~rows:30 () in
  List.iter2
    (fun request h ->
      let u =
        match List.find_opt (fun u -> u.Session.id = Session.id h) finals with
        | Some u -> u
        | None -> Alcotest.fail "missing final update"
      in
      Alcotest.(check bool) "converged" true u.Session.converged;
      match Server.serve oneshot request with
      | `Rejected -> Alcotest.fail "one-shot serve rejected"
      | `Served resp ->
        Alcotest.(check bool) "value bits" true
          (same_float u.Session.value resp.Server.value);
        Alcotest.(check bool) "ci95 bits" true (same_ci u.Session.ci95 resp.Server.ci95);
        Alcotest.(check int) "reps" resp.Server.reps_executed u.Session.reps_done)
    requests handles

let test_bit_identity_sequential () =
  check_session_matches_oneshot ~planner:Session.Explore ();
  check_session_matches_oneshot ~planner:Session.Round_robin ()

let test_bit_identity_pooled () =
  Pool.with_pool ~domains:2 (fun pool ->
      check_session_matches_oneshot ~pool ~planner:Session.Explore ())

(* Key-mates (same model, kind parameters and seed — different rep
   budgets) share one store: the second handle adopts the first one's
   replications instead of re-drawing them, and both still hold their
   one-shot bits. *)
let test_key_mate_reuse () =
  let server = Demo.server ~rows:30 () in
  let session = Session.create (Target.of_server server) in
  let big =
    Session.open_query session
      { Server.model = "sbp"; kind = Server.Mcdb_mean { reps = 48 }; seed = 3; deadline = None }
  in
  let small =
    Session.open_query session
      { Server.model = "sbp"; kind = Server.Mcdb_mean { reps = 16 }; seed = 3; deadline = None }
  in
  ignore (Session.drive session);
  let stats = Session.stats session in
  Alcotest.(check int) "no replication drawn twice" 48 stats.Session.fresh_reps;
  Alcotest.(check int) "small handle adopted its prefix" 16 stats.Session.reused_reps;
  let value_of h =
    match Session.estimate session h with
    | Some u -> u.Session.value
    | None -> Alcotest.fail "converged handle has no estimate"
  in
  let oneshot = Demo.server ~rows:30 () in
  let serve reps =
    match
      Server.serve oneshot
        { Server.model = "sbp"; kind = Server.Mcdb_mean { reps }; seed = 3; deadline = None }
    with
    | `Served resp -> resp.Server.value
    | `Rejected -> Alcotest.fail "one-shot serve rejected"
  in
  Alcotest.(check bool) "big matches one-shot at 48" true
    (same_float (value_of big) (serve 48));
  Alcotest.(check bool) "small matches one-shot at 16" true
    (same_float (value_of small) (serve 16))

(* A watcher fires exactly once per fresh batch landing on its key —
   counted against the batches the paying handle's refinement actually
   executed — and never again after the stream stops growing. *)
let test_watch_fires_once_per_batch () =
  let server = Demo.server ~rows:30 () in
  let config = { Session.tick_reps = 16; min_batch = 8 } in
  let session = Session.create ~config (Target.of_server server) in
  let request =
    { Server.model = "sbp"; kind = Server.Mcdb_mean { reps = 32 }; seed = 9; deadline = None }
  in
  let fired = ref [] in
  let _w = Session.watch session request (fun u -> fired := u :: !fired) in
  Alcotest.(check int) "nothing fires before batches land" 0 (List.length !fired);
  let _h = Session.open_query session request in
  ignore (Session.drive session);
  (* 32 reps in 8-rep batches: four batches, four firings, each at a
     strictly larger landed count. *)
  let firings = List.rev !fired in
  Alcotest.(check int) "one firing per batch" 4 (List.length firings);
  Alcotest.(check (list int)) "monotone landed counts" [ 8; 16; 24; 32 ]
    (List.map (fun u -> u.Session.reps_done) firings);
  (* Reuse-only progress fires nothing: a key-mate handle converging
     purely off the store must not re-trigger the watcher. *)
  let mate =
    Session.open_query session
      { request with Server.kind = Server.Mcdb_mean { reps = 16 } }
  in
  ignore (Session.drive session);
  Alcotest.(check int) "reuse-only progress is silent" 4 (List.length !fired);
  match Session.estimate session mate with
  | Some u -> Alcotest.(check bool) "mate converged off the store" true u.Session.converged
  | None -> Alcotest.fail "mate has no estimate"

(* Every tick spends at most its configured budget, exactly the
   configured budget while demand remains, and the session totals equal
   the summed per-tick allocations. *)
let test_budget_accounting () =
  let server = Demo.server ~rows:30 () in
  let config = { Session.tick_reps = 24; min_batch = 8 } in
  let session = Session.create ~config (Target.of_server server) in
  List.iter
    (fun r -> ignore (Session.open_query session r))
    (kind_requests ~seed:21);
  let demand =
    List.fold_left
      (fun acc r -> acc + Server.units_of r.Server.kind)
      0 (kind_requests ~seed:21)
  in
  let spent tick_stats =
    tick_stats.Session.fresh_reps + tick_stats.Session.reused_reps
  in
  let total = ref 0 and ticks = ref 0 in
  while (Session.stats session).Session.handles_open > 0 && !ticks < 100 do
    let before = spent (Session.stats session) in
    ignore (Session.tick session);
    let after = spent (Session.stats session) in
    let allocated = after - before in
    incr ticks;
    total := !total + allocated;
    let remaining = demand - after in
    if remaining > 0 then
      Alcotest.(check int) "full budget spent while demand remains" 24 allocated
    else
      Alcotest.(check bool) "never over budget" true (allocated <= 24)
  done;
  let stats = Session.stats session in
  Alcotest.(check int) "ticks counted" !ticks stats.Session.ticks;
  Alcotest.(check int) "fresh + reused = summed allocations" !total
    (spent stats);
  Alcotest.(check int) "every unit of demand allocated" demand (spent stats)

(* Open handles survive a retarget to a resized shard front: positional
   streams make the refinement target-independent, so the converged
   estimates still carry the one-shot bits. *)
let test_handles_survive_shard_resize () =
  let front2 = Demo.front ~rows:30 ~shards:2 () in
  let config = { Session.default_config with Session.tick_reps = 16 } in
  let session = Session.create ~config (Target.of_shard front2) in
  let requests = kind_requests ~seed:31 in
  let handles = List.map (Session.open_query session) requests in
  (* Partial progress on the 2-shard front... *)
  ignore (Session.tick session);
  ignore (Session.tick session);
  let mid = Session.stats session in
  Alcotest.(check bool) "made progress before the resize" true
    (mid.Session.fresh_reps > 0);
  (* ...then the front is resized and the session re-pointed. *)
  let front5 = Demo.front ~rows:30 ~shards:5 () in
  Session.retarget session (Target.of_shard front5);
  let finals = Session.drive session in
  Alcotest.(check int) "every handle converged across the resize"
    (List.length handles) (List.length finals);
  let oneshot = Demo.server ~rows:30 () in
  List.iter2
    (fun request h ->
      let u =
        match List.find_opt (fun u -> u.Session.id = Session.id h) finals with
        | Some u -> u
        | None -> Alcotest.fail "missing final update"
      in
      match Server.serve oneshot request with
      | `Rejected -> Alcotest.fail "one-shot serve rejected"
      | `Served resp ->
        Alcotest.(check bool) "value bits across resize" true
          (same_float u.Session.value resp.Server.value);
        Alcotest.(check bool) "ci95 bits across resize" true
          (same_ci u.Session.ci95 resp.Server.ci95))
    requests handles;
  ignore (Serve.Shard.shutdown front2);
  ignore (Serve.Shard.shutdown front5)

(* Cancelled handles stop consuming budget; their samples stay for
   key-mates. *)
let test_cancel () =
  let server = Demo.server ~rows:30 () in
  let config = { Session.default_config with Session.tick_reps = 8 } in
  let session = Session.create ~config (Target.of_server server) in
  let request =
    { Server.model = "sbp"; kind = Server.Mcdb_mean { reps = 64 }; seed = 5; deadline = None }
  in
  let h = Session.open_query session request in
  ignore (Session.tick session);
  Session.cancel session h;
  let before = Session.stats session in
  let updates = Session.tick session in
  let after = Session.stats session in
  Alcotest.(check int) "no updates after cancel" 0 (List.length updates);
  Alcotest.(check int) "no budget spent after cancel"
    (before.Session.fresh_reps + before.Session.reused_reps)
    (after.Session.fresh_reps + after.Session.reused_reps);
  (* The 8 landed replications are still adoptable by a key-mate. *)
  let mate =
    Session.open_query session { request with Server.kind = Server.Mcdb_mean { reps = 8 } }
  in
  ignore (Session.drive session);
  Alcotest.(check int) "cancelled handle's samples reused" 8
    (Session.stats session).Session.reused_reps;
  match Session.estimate session mate with
  | Some u -> Alcotest.(check bool) "mate converged" true u.Session.converged
  | None -> Alcotest.fail "mate has no estimate"

(* Every MCDB sampling run, served or progressive, goes through
   [Database.monte_carlo], which counts its replications and opens the
   [mcdb.estimate] span under a live registry: a served tail and a
   session batch are instrumented like a served mean. *)
let test_mcdb_sampling_instrumented () =
  let registry = Mde_obs.create () in
  Mde_obs.set_default registry;
  Fun.protect
    ~finally:(fun () -> Mde_obs.set_default Mde_obs.noop)
    (fun () ->
      let replications () =
        Mde_obs.Counter.value (Mde_obs.counter registry "mde_mcdb_replications_total")
      in
      let server = Demo.server ~rows:30 () in
      (match
         Server.serve server
           {
             Server.model = "sbp";
             kind = Server.Mcdb_tail { reps = 40; p = 0.9 };
             seed = 5;
             deadline = None;
           }
       with
      | `Served resp -> Alcotest.(check int) "tail ran in full" 40 resp.Server.reps_executed
      | `Rejected -> Alcotest.fail "tail serve rejected");
      Alcotest.(check int) "served tail counted" 40 (replications ());
      let session = Session.create (Target.of_server server) in
      ignore
        (Session.open_query session
           { Server.model = "sbp"; kind = Server.Mcdb_mean { reps = 48 }; seed = 6; deadline = None });
      ignore (Session.tick session);
      let fresh = (Session.stats session).Session.fresh_reps in
      Alcotest.(check bool) "the tick drew replications" true (fresh > 0);
      Alcotest.(check int) "session batches counted" (40 + fresh) (replications ());
      Alcotest.(check bool) "mcdb.estimate span recorded" true
        (List.exists (fun s -> s.Mde_obs.name = "mcdb.estimate") (Mde_obs.spans registry)))

(* perfbench's session-explore mix: a bundle MCDB mean, a naive MCDB
   tail, four chains and an MCDB key-mate pair. *)
let explore_mix ~seed =
  let req model kind k = { Server.model; kind; seed = seed + k; deadline = None } in
  [
    req "sbp_bundle" (Server.Mcdb_mean { reps = 256 }) 0;
    req "sbp" (Server.Mcdb_tail { reps = 40; p = 0.9 }) 1;
    req "walk" (Server.Chain_mean { steps = 4; reps = 64 }) 2;
    req "walk" (Server.Chain_mean { steps = 4; reps = 64 }) 3;
    req "walk" (Server.Chain_mean { steps = 4; reps = 64 }) 4;
    req "walk" (Server.Chain_mean { steps = 96; reps = 384 }) 5;
    req "sbp" (Server.Mcdb_mean { reps = 32 }) 6;
    req "sbp" (Server.Mcdb_mean { reps = 16 }) 6;
  ]

(* Composite key-mates (n = 64 and n = 20 on one stream) next to an
   MCDB pair and a chain, with a composite and a sample watcher. *)
let queue_request ~seed n =
  {
    Server.model = "queue";
    kind = Server.Composite_estimate { n; alpha = 0.25 };
    seed;
    deadline = None;
  }

let composite_mix ~seed =
  let queue = queue_request ~seed in
  let sbp reps =
    { Server.model = "sbp"; kind = Server.Mcdb_mean { reps }; seed = seed + 1; deadline = None }
  in
  let walk =
    {
      Server.model = "walk";
      kind = Server.Chain_mean { steps = 8; reps = 32 };
      seed = seed + 2;
      deadline = None;
    }
  in
  ([ queue 64; queue 20; sbp 24; walk ], [ queue 48; sbp 40 ])

(* Every tick's updates, every watcher firing, every handle's final
   estimate and the session totals, as one string: the planner's
   decisions and the bits they produce. *)
let planner_trace ~planner ~config (requests, watched) =
  let front = Demo.front ~rows:30 ~shards:2 () in
  let session = Session.create ~planner ~config (Target.of_shard front) in
  let b = Buffer.create 4096 in
  let add_update tag u =
    Buffer.add_string b
      (Printf.sprintf "%s %d %Lx %d/%d r%d %b\n" tag u.Session.id (bits u.Session.value)
         u.Session.reps_done u.Session.reps_total u.Session.reps_reused u.Session.converged)
  in
  let watchers = List.map (fun r -> Session.watch session r (add_update "fire")) watched in
  let handles = List.map (Session.open_query session) requests in
  let ticks = ref 0 in
  while (Session.stats session).Session.handles_open > 0 && !ticks < 1000 do
    incr ticks;
    Buffer.add_string b (Printf.sprintf "tick %d\n" !ticks);
    List.iter (add_update "update") (Session.tick session)
  done;
  List.iter
    (fun h -> Option.iter (add_update "final") (Session.estimate session h))
    (watchers @ handles);
  let st = Session.stats session in
  Buffer.add_string b
    (Printf.sprintf "ticks %d fresh %d reused %d\n" st.Session.ticks st.Session.fresh_reps
       st.Session.reused_reps);
  ignore (Serve.Shard.shutdown front);
  Buffer.contents b

(* The planners' decisions, pinned: a digest of every update and firing
   on four mixes, under both planners. Refactoring the session must
   leave it unchanged. The explorer prices a composite batch as adopted
   only when the level it reaches was served, the rule that runs it. *)
let test_planner_trace_pinned () =
  let digest ~planner ~config mix =
    Digest.to_hex (Digest.string (planner_trace ~planner ~config mix))
  in
  let small = { Session.default_config with Session.tick_reps = 12 } in
  List.iter
    (fun (name, expected, got) -> Alcotest.(check string) name expected got)
    [
      ( "explore mix, Explore",
        "c3cacf3fd73ade165691fda8f2d88665",
        digest ~planner:Session.Explore ~config:Session.default_config
          (explore_mix ~seed:1000, []) );
      ( "explore mix, Round_robin",
        "26fe5f563d419b67dd66c198beb5d4f1",
        digest ~planner:Session.Round_robin ~config:Session.default_config
          (explore_mix ~seed:1000, []) );
      ( "composite key-mates, Explore",
        "14af7a2b38fa3621cc72b2c84f1ab02d",
        digest ~planner:Session.Explore ~config:small (composite_mix ~seed:41) );
      ( "composite key-mates, Round_robin",
        "ab2308915368c873ccd2eb6674b96f9e",
        digest ~planner:Session.Round_robin ~config:small (composite_mix ~seed:41) );
    ]

(* A composite watcher fires once for each newly served level within its
   total, carrying the served value. *)
let test_composite_watch_fires_per_level () =
  let server = Demo.server ~rows:30 () in
  let config = { Session.default_config with Session.tick_reps = 8 } in
  let session = Session.create ~config (Target.of_server server) in
  let fired = ref [] in
  let _w = Session.watch session (queue_request ~seed:4 24) (fun u -> fired := u :: !fired) in
  let _h = Session.open_query session (queue_request ~seed:4 32) in
  ignore (Session.drive session);
  let firings = List.rev !fired in
  Alcotest.(check (list int)) "one firing per served level within the total" [ 8; 16; 24 ]
    (List.map (fun u -> u.Session.reps_done) firings);
  let oneshot = Demo.server ~rows:30 () in
  List.iter
    (fun u ->
      match Server.serve oneshot (queue_request ~seed:4 u.Session.reps_done) with
      | `Served resp ->
        Alcotest.(check bool) "served level's bits" true
          (same_float u.Session.value resp.Server.value)
      | `Rejected -> Alcotest.fail "one-shot serve rejected")
    firings

(* Adopting a served level lands nothing new: a composite key-mate
   converging off the levels store fires no watcher, and its reps count
   as reused. *)
let test_composite_adoption_silent () =
  let server = Demo.server ~rows:30 () in
  let config = { Session.default_config with Session.tick_reps = 8 } in
  let session = Session.create ~config (Target.of_server server) in
  let fired = ref 0 in
  let _w = Session.watch session (queue_request ~seed:6 32) (fun _ -> incr fired) in
  let _big = Session.open_query session (queue_request ~seed:6 32) in
  ignore (Session.drive session);
  let before = !fired in
  Alcotest.(check int) "one firing per served level" 4 before;
  let mate = Session.open_query session (queue_request ~seed:6 16) in
  ignore (Session.drive session);
  Alcotest.(check int) "adoption fires nothing" before !fired;
  Alcotest.(check int) "adopted levels count as reused" 16
    (Session.stats session).Session.reused_reps;
  match Session.estimate session mate with
  | Some u -> Alcotest.(check bool) "mate converged" true u.Session.converged
  | None -> Alcotest.fail "mate has no estimate"

(* Composite key-mates opened together share served levels. *)
let test_composite_key_mates_reuse () =
  let server = Demo.server ~rows:30 () in
  let config = { Session.default_config with Session.tick_reps = 12 } in
  let session = Session.create ~config (Target.of_server server) in
  let big = Session.open_query session (queue_request ~seed:8 64) in
  let small = Session.open_query session (queue_request ~seed:8 20) in
  ignore (Session.drive session);
  Alcotest.(check bool) "a key-mate adopted served levels" true
    ((Session.stats session).Session.reused_reps > 0);
  let oneshot = Demo.server ~rows:30 () in
  List.iter
    (fun (h, n) ->
      match (Session.estimate session h, Server.serve oneshot (queue_request ~seed:8 n)) with
      | Some u, `Served resp ->
        Alcotest.(check bool) "converged == one-shot" true
          (u.Session.converged && same_float u.Session.value resp.Server.value)
      | _ -> Alcotest.fail "missing estimate or one-shot answer")
    [ (big, 64); (small, 20) ]

let () =
  Alcotest.run "session"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "converged == one-shot (both planners)" `Quick
            test_bit_identity_sequential;
          Alcotest.test_case "converged == one-shot (pooled)" `Quick
            test_bit_identity_pooled;
          Alcotest.test_case "key-mates share one store" `Quick test_key_mate_reuse;
          Alcotest.test_case "composite key-mates reuse levels" `Quick
            test_composite_key_mates_reuse;
        ] );
      ( "planner",
        [ Alcotest.test_case "trace pinned" `Quick test_planner_trace_pinned ] );
      ( "watch",
        [
          Alcotest.test_case "fires once per landed batch" `Quick
            test_watch_fires_once_per_batch;
          Alcotest.test_case "composite fires once per level" `Quick
            test_composite_watch_fires_per_level;
          Alcotest.test_case "composite adoption fires nothing" `Quick
            test_composite_adoption_silent;
        ] );
      ( "budget",
        [
          Alcotest.test_case "allocations sum to configured budget" `Quick
            test_budget_accounting;
          Alcotest.test_case "cancel stops spend, keeps samples" `Quick test_cancel;
        ] );
      ( "retarget",
        [
          Alcotest.test_case "handles survive shard resize" `Quick
            test_handles_survive_shard_resize;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "served tails and session batches instrumented" `Quick
            test_mcdb_sampling_instrumented;
        ] );
    ]
