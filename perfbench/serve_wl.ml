(* serve-hot and serve-cold: a closed loop of 4 callers against a
   multi-shard serving front. Each round submits one request per caller
   through [Target.submit], then drains; an op's latency runs from its
   submit to the drain's return. *)

open Mde_relational
open Measure
module Serve = Mde_serve
module Server = Serve.Server
module Shard = Serve.Shard
module Target = Serve.Target
module Demo = Serve.Demo
module Rng = Mde_prob.Rng
module Database = Mde_mcdb.Database
module Est = Mde_mcdb.Estimator
module Chain = Mde_simsql.Chain
module Rc = Mde_composite.Result_cache

let callers = 4

(* The models of [Demo.front] (same definitions, so the same
   fingerprints and answers), rebuilt here so the traced run can wrap
   the closures the benchmark registers: the query in a span, the VG
   function, chain transition and composite stages in aggregate timers.
   The federated "sbp_any" name is left out: its backend choice follows
   measured latency, which would make the work depend on timing. *)
type models = {
  db : Database.t;
  query : Catalog.t -> float;
  chain : Chain.t;
  current : Chain.state -> float;
  stages : float Rc.two_stage;
}

let models ~tracer ~rows =
  let vg =
    let n = Mde_mcdb.Vg.normal in
    Mde_mcdb.Vg.create ~name:n.name ~output:n.output ~row_stable:n.row_stable (fun rng p ->
        Trace.timed tracer "model.vg" (fun () -> n.generate rng p))
  in
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
      ~driver:patients ~vg
      ~params:(fun _ -> [ param ])
      ~combine:(fun d v -> [| d.(0); d.(1); v.(0) |])
  in
  let db = Database.create () in
  Database.add_stochastic db st;
  let schema = Schema.of_list [ ("x", Value.Tfloat) ] in
  let table x = Table.create schema [ [| Value.Float x |] ] in
  let current state = Value.to_float (Table.rows (Chain.table state "X")).(0).(0) in
  let chain =
    {
      Chain.initial = (fun _rng -> Chain.state_of_tables [ ("X", table 0.) ]);
      transition =
        (fun rng state ->
          Trace.timed tracer "model.transition" (fun () ->
              Chain.with_table state "X" (table (current state +. Rng.float rng -. 0.5))));
    }
  in
  let stages =
    {
      Rc.model1 =
        (fun rng -> Trace.timed tracer "model.composite" (fun () -> 10. *. Rng.float rng));
      model2 =
        (fun rng y -> Trace.timed tracer "model.composite" (fun () -> y +. Rng.float rng));
    }
  in
  {
    db;
    query = (fun c -> Trace.span tracer "model.query" (fun () -> Demo.mean_sbp c));
    chain;
    current;
    stages;
  }

let front ~models:m ~shards ~cache_capacity =
  let t =
    Shard.create ~clock ~cache_capacity ~admission:Server.Admit_all ~shards ()
  in
  Shard.register_mcdb t ~name:"sbp" ~query:m.query m.db;
  Shard.register_mcdb_plan t ~name:"sbp_bundle" ~table:"SBP_DATA" ~plan:Demo.sbp_plan m.db;
  Shard.register_chain t ~name:"walk" ~query:m.current m.chain;
  Shard.register_composite t ~name:"queue" m.stages;
  t

(* The direct library call a served request must equal bit for bit. *)
let exec_name (r : Server.request) =
  match (r.model, r.kind) with
  | "sbp", Server.Mcdb_mean _ -> "exec.mcdb_mean"
  | "sbp", Server.Mcdb_tail _ -> "exec.mcdb_tail"
  | "sbp_bundle", Server.Mcdb_mean _ -> "exec.bundle_mean"
  | "sbp_bundle", Server.Mcdb_tail _ -> "exec.bundle_tail"
  | "walk", _ -> "exec.chain"
  | _ -> "exec.composite"

let direct_call m (r : Server.request) =
  let rng = Rng.create ~seed:r.seed () in
  match (r.model, r.kind) with
  | "sbp", Server.Mcdb_mean { reps } ->
    let e = Database.estimate m.db rng ~reps ~query:m.query in
    (e.Est.mean, Some e.Est.ci95)
  | "sbp", Server.Mcdb_tail { reps; p } ->
    let q, ci =
      Est.tail_estimate (Database.monte_carlo m.db rng ~reps ~query:m.query) ~p ~level:0.95
    in
    (q, Some ci)
  | "sbp_bundle", Server.Mcdb_mean { reps } ->
    let e =
      Est.of_samples (Database.plan_samples m.db rng ~table:"SBP_DATA" ~reps Demo.sbp_plan)
    in
    (e.Est.mean, Some e.Est.ci95)
  | "sbp_bundle", Server.Mcdb_tail { reps; p } ->
    let q, ci =
      Est.tail_estimate
        (Database.plan_samples m.db rng ~table:"SBP_DATA" ~reps Demo.sbp_plan)
        ~p ~level:0.95
    in
    (q, Some ci)
  | "walk", Server.Chain_mean { steps; reps } ->
    let series = Chain.monte_carlo m.chain rng ~steps ~reps ~query:m.current in
    let e = Est.of_samples (Array.map (fun row -> row.(steps)) series) in
    (e.Est.mean, Some e.Est.ci95)
  | "queue", Server.Composite_estimate { n; alpha } ->
    ((Rc.estimate m.stages rng ~n ~alpha).Rc.theta_hat, None)
  | _ -> invalid_arg "Serve_wl.direct: request outside the benchmark's models"

let matches m (r : Server.request) value ci =
  let v, c = direct_call m r in
  same_float v value && same_ci c ci

(* [direct_call], computed once per request for the whole run: the
   models every set-up builds are the same definitions, so a request's
   direct answer does not depend on the instance that served it. *)
let expected =
  let memo = Hashtbl.create 1024 in
  fun m (r : Server.request) ->
    match Hashtbl.find_opt memo r with
    | Some d -> d
    | None ->
      let d = direct_call m r in
      Hashtbl.add memo r d;
      d

let agrees m (r : Server.request) value ci =
  let v, c = expected m r in
  same_float v value && same_ci c ci

(* Exact counters summed over the shards, for deltas across a replay. *)
type counts = {
  hits : int;
  misses : int;
  evictions : int;
  batches : int;
  completed : int;
  routed : int array;
}

let counts front =
  let st = Shard.stats front in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 st.Shard.servers in
  {
    hits = sum (fun s -> s.Server.cache.Serve.Cache.hits);
    misses = sum (fun s -> s.Server.cache.Serve.Cache.misses);
    evictions = sum (fun s -> s.Server.cache.Serve.Cache.evictions);
    batches = sum (fun s -> s.Server.scheduler.Serve.Scheduler.batches);
    completed = sum (fun s -> s.Server.scheduler.Serve.Scheduler.completed);
    routed = Array.copy st.Shard.routed;
  }

(* Model time spent inside rounds (the direct calls of the traced run's
   answer check run the same closures outside them). *)
type model_time = { mutable query_ns : int; mutable vg_ns : int }

(* One closed-loop round: submit every request, drain, and time each op
   from its submit to the drain's return. Returns each caller's
   response; a dropped request, or one whose response never came, is
   [None]. *)
let round ~tracer ?model_time target (reqs : Server.request array) tally =
  let n = Array.length reqs in
  let ids = Array.make n (-1) and t_sub = Array.make n 0 in
  let out = Array.make n None in
  let q0 = Option.fold ~none:0 ~some:(fun tr -> Trace.total tr "model.query") tracer in
  let v0 = Option.fold ~none:0 ~some:(fun tr -> Trace.total tr "model.vg") tracer in
  Trace.span tracer "round" (fun () ->
      for c = 0 to n - 1 do
        t_sub.(c) <- now_ns ();
        match Trace.span tracer "target.submit" (fun () -> Target.submit target reqs.(c)) with
        | `Queued id -> ids.(c) <- id
        | `Dropped -> ()
      done;
      let responses = Trace.span tracer "target.drain" (fun () -> Target.drain target) in
      let t_end = now_ns () in
      List.iter
        (fun (id, resp) ->
          for c = 0 to n - 1 do
            if ids.(c) = id then begin
              Lat.add tally.lat (float_of_int (t_end - t_sub.(c)));
              out.(c) <- Some resp
            end
          done)
        responses);
  (match (tracer, model_time) with
  | Some tr, Some m ->
    m.query_ns <- m.query_ns + Trace.total tr "model.query" - q0;
    m.vg_ns <- m.vg_ns + Trace.total tr "model.vg" - v0
  | _ -> ());
  tally.attempted <- tally.attempted + n;
  out

(* Count the failures of a round: missing and degraded responses, and
   those [bad c resp] rejects. *)
let settle tally out ~bad =
  Array.iteri
    (fun c r ->
      match r with
      | Some (resp : Server.response) when (not resp.Server.degraded) && not (bad c resp) -> ()
      | _ -> tally.failed <- tally.failed + 1)
    out;
  Array.length out

let count_layers ~tracer ~front ~base ~ops ~model_time ~extra =
  let tr = Option.get tracer in
  let now = counts front in
  let d f = f now - f base in
  let routed = Array.mapi (fun i r -> r - base.routed.(i)) now.routed in
  let mean_routed =
    float_of_int (Array.fold_left ( + ) 0 routed) /. float_of_int (Array.length routed)
  in
  let max_routed = float_of_int (Array.fold_left max 0 routed) in
  let per_op ns = ms (float_of_int ns) /. float_of_int ops in
  [
    ("target.submit_us", us (Trace.mean_ns tr "target.submit"));
    ("target.drain_us", us (Trace.mean_ns tr "target.drain"));
    ("shard.imbalance", max_routed /. mean_routed);
    ( "cache.hit_ratio",
      float_of_int (d (fun c -> c.hits)) /. float_of_int (d (fun c -> c.hits + c.misses)) );
    ("cache.evictions", float_of_int (d (fun c -> c.evictions)));
    ("scheduler.batches", float_of_int (d (fun c -> c.batches)));
    ( "scheduler.batch_size_mean",
      if d (fun c -> c.batches) = 0 then 0.
      else float_of_int (d (fun c -> c.completed)) /. float_of_int (d (fun c -> c.batches)) );
    ("model.query_ms", per_op model_time.query_ns);
    ("model.vg_ms", per_op model_time.vg_ns);
  ]
  @ extra

(* --- serve-hot ---------------------------------------------------------

   A few hundred [Demo.catalog] templates, drawn Zipf(1.1); every shard's
   cache holds the whole catalog, set-up serves each template once, so
   every measured request is a cache hit and no model layer runs. *)

let hot_templates = 300

let hot ~tracer ~seed =
  let models = models ~tracer ~rows:120 in
  let front = front ~models ~shards:4 ~cache_capacity:hot_templates in
  let target = Target.of_shard front in
  let catalog = Demo.catalog hot_templates in
  let warm =
    Array.map
      (fun r ->
        match Target.serve target r with
        | `Served resp -> resp
        | `Dropped -> failwith "serve-hot: warm-up request dropped")
      catalog
  in
  let cdf = Serve.Workload.zipf_cdf ~s:1.1 ~n:hot_templates in
  let base = counts front and model_time = { query_ns = 0; vg_ns = 0 } in
  let rounds = ref 0 and ops = ref 0 in
  let step tally =
    let rng = rng_for ~seed !rounds in
    incr rounds;
    let picks = Array.init callers (fun _ -> Serve.Workload.zipf_sample rng cdf) in
    let reqs = Array.map (fun i -> catalog.(i)) picks in
    (match tracer with
    | Some tr when tr.Trace.on ->
      Trace.set_op tr !rounds;
      Trace.span tracer "probe" (fun () ->
          Array.iter
            (fun r ->
              ignore (Trace.span tracer "shard.fingerprint" (fun () -> Shard.fingerprint front r));
              ignore (Trace.span tracer "shard.route" (fun () -> Shard.shard_of front r)))
            reqs)
    | _ -> ());
    let out = round ~tracer ~model_time target reqs tally in
    let n =
      settle tally out ~bad:(fun c resp ->
          let w = warm.(picks.(c)) in
          resp.Server.cache <> Server.Hit
          || (not (same_float resp.Server.value w.Server.value))
          || not (same_ci resp.Server.ci95 w.Server.ci95))
    in
    ops := !ops + n;
    n
  in
  (* Every hot response equals its template's warm-up response (checked
     in the loop); the warm-up responses must equal the direct calls. *)
  let verify () =
    let bad = ref 0 in
    Array.iteri
      (fun i r ->
        if not (agrees models r warm.(i).Server.value warm.(i).Server.ci95) then incr bad)
      catalog;
    !bad
  in
  let layers () =
    let tr = Option.get tracer in
    count_layers ~tracer ~front ~base ~ops:!ops ~model_time
      ~extra:
        [
          ("shard.fingerprint_us", us (Trace.mean_ns tr "shard.fingerprint"));
          ("shard.route_us", us (Trace.mean_ns tr "shard.route"));
        ]
  in
  { step; verify; layers }

(* --- serve-cold --------------------------------------------------------

   The stream cycles through [cold_pool] distinct requests over every
   execution path: slot [k] takes path [k mod 5] and a request seed made
   from the workload seed and [k]. The path of each slot, and so the mix
   of paths in each round, is the same for every seed; a seed-drawn mix
   would move the median latency from one round cost to the next
   between seeds. Each shard sees its share of the pool in the same
   cyclic order and holds far fewer entries than that share, so under
   LRU every probe misses and, once the caches are full, every admission
   evicts. Cycling rather than drawing ever-new requests keeps the
   server's per-fingerprint bookkeeping, and so the heap, from growing
   with the number of ops a window happens to complete. *)

let cold_pool = 1024

let cold_request ~seed k : Server.request =
  let kind, model =
    match k mod 5 with
    | 0 -> (Server.Mcdb_mean { reps = 24 }, "sbp")
    | 1 -> (Server.Mcdb_tail { reps = 24; p = 0.9 }, "sbp")
    | 2 -> (Server.Mcdb_tail { reps = 24; p = 0.9 }, "sbp_bundle")
    | 3 -> (Server.Chain_mean { steps = 48; reps = 96 }, "walk")
    | _ -> (Server.Composite_estimate { n = 8_000; alpha = 0.25 }, "queue")
  in
  { Server.model; kind; seed = (seed * 10_000_000) + k; deadline = None }

let cold ~tracer ~seed =
  let models = models ~tracer ~rows:120 in
  let front = front ~models ~shards:4 ~cache_capacity:32 in
  let target = Target.of_shard front in
  let pool = Array.init cold_pool (cold_request ~seed) in
  let rounds = ref 0 and ops = ref 0 and bad = ref 0 in
  let next_round () =
    let r = !rounds in
    incr rounds;
    (r, Array.init callers (fun c -> ((r * callers) + c) mod cold_pool))
  in
  (* set-up serves the first pass over the pool, which fills every
     shard's cache *)
  let warm = tally () in
  while !rounds * callers < cold_pool do
    let _, slots = next_round () in
    let out = round ~tracer:None target (Array.map (fun k -> pool.(k)) slots) warm in
    ignore (settle warm out ~bad:(fun _ _ -> false))
  done;
  if warm.failed > 0 then failwith "serve-cold: warm-up request failed";
  let base = counts front and model_time = { query_ns = 0; vg_ns = 0 } in
  (* pool slot, value, CI low, CI high per response, checked after the
     window *)
  let slot = Lat.create () and values = Lat.create () in
  let lows = Lat.create () and highs = Lat.create () in
  let step tally =
    let r, slots = next_round () in
    Option.iter (fun tr -> Trace.set_op tr r) tracer;
    let reqs = Array.map (fun k -> pool.(k)) slots in
    let out = round ~tracer ~model_time target reqs tally in
    let n =
      settle tally out ~bad:(fun c resp ->
          if Trace.active tracer then begin
            (* the traced run times the direct calls as exec.* spans *)
            let ok =
              Trace.span tracer "check" (fun () ->
                  Trace.span tracer (exec_name reqs.(c)) (fun () ->
                      matches models reqs.(c) resp.Server.value resp.Server.ci95))
            in
            if not ok then incr bad
          end
          else begin
            let lo, hi = Option.value resp.Server.ci95 ~default:(nan, nan) in
            Lat.add slot (float_of_int slots.(c));
            Lat.add values resp.Server.value;
            Lat.add lows lo;
            Lat.add highs hi
          end;
          false)
    in
    ops := !ops + n;
    n
  in
  let verify () =
    for i = 0 to values.Lat.n - 1 do
      let get (b : Lat.t) = Bigarray.Array1.get b.Lat.a i in
      let v, c = expected models pool.(int_of_float (get slot)) in
      let ci = if Float.is_nan (get lows) then None else Some (get lows, get highs) in
      if not (same_float v (get values) && same_ci c ci) then incr bad
    done;
    !bad
  in
  let layers () =
    let tr = Option.get tracer in
    let kinds =
      [ "exec.mcdb_mean"; "exec.mcdb_tail"; "exec.bundle_tail"; "exec.chain"; "exec.composite" ]
    in
    let exec_ns = List.fold_left (fun a k -> a + Trace.total tr k) 0 kinds in
    let executed = (counts front).completed - base.completed in
    count_layers ~tracer ~front ~base ~ops:!ops ~model_time
      ~extra:
        (List.map (fun k -> (k ^ "_ms", ms (Trace.mean_ns tr k))) kinds
        @ [
            ( "server.overhead_ms",
              ms (float_of_int (Trace.total tr "target.drain" - exec_ns)) /. float_of_int executed
            );
          ])
  in
  { step; verify; layers }
