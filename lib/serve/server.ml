module Rc = Mde_composite.Result_cache
module Est = Mde_mcdb.Estimator
module Database = Mde_mcdb.Database
module Bundle = Mde_mcdb.Bundle
module Chain = Mde_simsql.Chain
module Rng = Mde_prob.Rng

type kind =
  | Mcdb_mean of { reps : int }
  | Mcdb_tail of { reps : int; p : float }
  | Chain_mean of { steps : int; reps : int }
  | Composite_estimate of { n : int; alpha : float }

type request = { model : string; kind : kind; seed : int; deadline : float option }
type cache_status = Hit | Miss

type response = {
  value : float;
  ci95 : (float * float) option;
  reps_requested : int;
  reps_executed : int;
  degraded : bool;
  cache : cache_status;
  latency : float;
}

type admission = Admit_all | Cost_aware of { min_gain : float; warmup : int }

type model =
  | Mcdb of { db : Database.t; query : Mde_relational.Catalog.t -> float }
  | Bundle_model of { db : Database.t; table : string; plan : Bundle.plan }
  | Chain_model of { chain : Chain.t; query : Chain.state -> float }
  | Composite : 'a Rc.two_stage -> model

(* Per-query-class accounting: execution cost (for deadline budgets and
   the c1 of admission), probe cost (c2), result variance (V1) and
   exact-repeat popularity (drives V2). Mutated only on the caller
   domain — work closures read a snapshot taken at submission. *)
type class_info = {
  mutable requests : int;
  mutable repeats : int;
  mutable executions : int;
  mutable exec_seconds : float;
  mutable exec_units : int;
  mutable probes : int;
  mutable probe_seconds : float;
  results : Cache.variance_tracker;
}

type executed = {
  xvalue : float;
  xci95 : (float * float) option;
  xunits : int;
  xseconds : float;
}

type inflight = {
  id : int;
  fp : string;
  cls : class_info;
  requested : int;
  lat : Mde_obs.Histogram.t;  (* the request class's latency histogram *)
}

(* Latency is tracked per request class (one histogram per [kind]
   constructor); counters split the cache-served and degraded paths out
   of the aggregate. *)
type metrics = {
  m_latency : Mde_obs.Histogram.t array;  (* indexed by [kind_index] *)
  m_degraded : Mde_obs.Counter.t;
  m_cache_served : Mde_obs.Counter.t;
}

let kind_index = function
  | Mcdb_mean _ -> 0
  | Mcdb_tail _ -> 1
  | Chain_mean _ -> 2
  | Composite_estimate _ -> 3

let kind_class_labels = [| "mcdb_mean"; "mcdb_tail"; "chain_mean"; "composite" |]

type t = {
  clock : unit -> float;
  cache : (float * (float * float) option * int) Cache.t;
  sched : executed Scheduler.t;
  models : (string, model) Hashtbl.t;
  classes : (string, class_info) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;  (* the last [seen_window] distinct fingerprints *)
  mutable seen_ring : string array;  (* [seen]'s keys by arrival, a ring once full *)
  mutable seen_count : int;  (* distinct fingerprints seen so far *)
  admission : admission;
  inflight : (int, inflight) Hashtbl.t;  (* scheduler ticket -> bookkeeping *)
  mutable ready : (int * response) list;  (* completed at submission (cache hits) *)
  mutable unanswered : int list;  (* ids the last drain or shutdown ended unanswered *)
  mutable next_id : int;
  mutable served : int;
  mutable rejected : int;
  mutable degraded_count : int;
  metrics : metrics;
}

let default_admission = Cost_aware { min_gain = 1. +. 1e-9; warmup = 3 }

(* Repeats are counted against the most recent [seen_window] distinct
   fingerprints, an exact set evicted first in, first out: a server's
   memory stays bounded however many distinct requests it serves, and
   the repeat fraction, so every admission decision, is unchanged until
   that many distinct fingerprints have been seen. *)
let seen_window = 4096

(* The ring grows by doubling to [seen_window] slots, then overwrites
   its oldest entry. *)
let remember t fp =
  let n = t.seen_count and cap = Array.length t.seen_ring in
  if n >= seen_window then Hashtbl.remove t.seen t.seen_ring.(n mod seen_window)
  else if n = cap then begin
    let bigger = Array.make (min seen_window (max 16 (2 * cap))) "" in
    Array.blit t.seen_ring 0 bigger 0 cap;
    t.seen_ring <- bigger
  end;
  t.seen_ring.(n mod seen_window) <- fp;
  Hashtbl.add t.seen fp ();
  t.seen_count <- n + 1

let create ?pool ?(clock = Mde_obs.Clock.wall) ?obs ?(cache_capacity = 256)
    ?(cache_ttl = infinity) ?(scheduler = Scheduler.default_config)
    ?(admission = default_admission) () =
  let obs = match obs with Some o -> o | None -> Mde_obs.default () in
  {
    clock;
    cache = Cache.create ~obs ~capacity:cache_capacity ~ttl:cache_ttl ~clock ();
    sched = Scheduler.create ?pool ~clock ~obs scheduler;
    models = Hashtbl.create 8;
    classes = Hashtbl.create 16;
    seen = Hashtbl.create 64;
    seen_ring = [||];
    seen_count = 0;
    admission;
    inflight = Hashtbl.create 16;
    ready = [];
    unanswered = [];
    next_id = 0;
    served = 0;
    rejected = 0;
    degraded_count = 0;
    metrics =
      {
        m_latency =
          Array.map
            (fun cls ->
              Mde_obs.histogram obs
                ~help:"Submission-to-availability latency, by request class"
                ~labels:[ ("class", cls) ]
                "mde_serve_latency_seconds")
            kind_class_labels;
        m_degraded =
          Mde_obs.counter obs ~help:"Responses degraded to fit a deadline budget"
            "mde_serve_degraded_total";
        m_cache_served =
          Mde_obs.counter obs ~help:"Responses answered from the result cache"
            "mde_serve_cache_served_total";
      };
  }

let register t name model =
  if Hashtbl.mem t.models name then
    invalid_arg (Printf.sprintf "Server: model %S already registered" name);
  Hashtbl.replace t.models name model

let register_mcdb t ~name ~query db = register t name (Mcdb { db; query })

let register_mcdb_plan t ~name ~table ~plan db =
  (* Fail at registration, not first request: the bundle path serves the
     per-repetition samples of the plan's single global aggregate. *)
  if plan.Bundle.group_keys <> [] then
    invalid_arg "Server: bundle plan must aggregate into a single global group";
  if plan.Bundle.aggs = [] then invalid_arg "Server: bundle plan has no aggregates";
  register t name (Bundle_model { db; table; plan })
let register_chain t ~name ~query chain = register t name (Chain_model { chain; query })
let register_composite t ~name stages = register t name (Composite stages)

let lookup t name =
  match Hashtbl.find_opt t.models name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Server: unknown model %S" name)

(* Smallest replication count each kind can be degraded to and still
   satisfy its estimator's preconditions. *)
let floor_units = function
  | Mcdb_mean _ | Chain_mean _ | Composite_estimate _ -> 2
  | Mcdb_tail { p; _ } ->
    let tail = Float.min p (1. -. p) in
    Stdlib.max 2 (int_of_float (ceil (1. /. tail)))

let units_of = function
  | Mcdb_mean { reps } | Mcdb_tail { reps; _ } | Chain_mean { reps; _ } -> reps
  | Composite_estimate { n; _ } -> n

let validate t request =
  let model = lookup t request.model in
  (match request.deadline with
  | Some d when not (d > 0.) -> invalid_arg "Server: deadline must be positive"
  | _ -> ());
  (match (model, request.kind) with
  | (Mcdb _ | Bundle_model _), (Mcdb_mean _ | Mcdb_tail _)
  | Chain_model _, Chain_mean _
  | Composite _, Composite_estimate _ -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "Server: request kind incompatible with model %S" request.model));
  (match request.kind with
  | Mcdb_tail { p; _ } when not (p > 0. && p < 1.) ->
    invalid_arg "Server: tail p must be in (0,1)"
  | Composite_estimate { alpha; _ } when not (alpha > 0. && alpha <= 1.) ->
    invalid_arg "Server: alpha must be in (0,1]"
  | Chain_mean { steps; _ } when steps < 1 -> invalid_arg "Server: steps must be >= 1"
  | _ -> ());
  if units_of request.kind < floor_units request.kind then
    invalid_arg
      (Printf.sprintf "Server: %d replications below the minimum %d for this query"
         (units_of request.kind) (floor_units request.kind));
  model

let model_fingerprint name = function
  | Mcdb { db; _ } -> Printf.sprintf "mcdb:%s:%s" name (Database.fingerprint db)
  | Bundle_model { db; table; plan } ->
    Printf.sprintf "bundle:%s:%s:%s:%s" name table (Bundle.plan_fingerprint plan)
      (Database.fingerprint db)
  | Chain_model _ -> "chain:" ^ name
  | Composite _ -> "rc:" ^ name

(* Every key of a request, from one model fingerprint: the cache
   [fingerprint] (routing hashes its bytes), the [class_key] of requests
   that micro-batch and share one admission decision (any seed) and the
   [refinement_key] of its replication stream (any replication count). *)
type keys = { fingerprint : string; class_key : string; refinement_key : string }

let keys_of request model =
  let mfp = model_fingerprint request.model model in
  let seed = "|seed=" ^ string_of_int request.seed in
  let seeded ~cls ~stream =
    { fingerprint = cls ^ seed; class_key = cls; refinement_key = stream ^ seed }
  in
  match request.kind with
  | Mcdb_mean { reps } ->
    seeded ~cls:(Printf.sprintf "%s|mean|reps=%d" mfp reps) ~stream:(mfp ^ "|mean")
  | Mcdb_tail { reps; p } ->
    seeded
      ~cls:(Printf.sprintf "%s|tail|reps=%d|p=%.17g" mfp reps p)
      ~stream:(Printf.sprintf "%s|tail|p=%.17g" mfp p)
  | Chain_mean { steps; reps } ->
    seeded
      ~cls:(Printf.sprintf "%s|chain|steps=%d|reps=%d" mfp steps reps)
      ~stream:(Printf.sprintf "%s|chain|steps=%d" mfp steps)
  | Composite_estimate { n; alpha } ->
    {
      fingerprint = Rc.query_fingerprint ~model:mfp ~n ~alpha ~seed:request.seed;
      class_key = Printf.sprintf "%s|rc|n=%d|alpha=%.17g" mfp n alpha;
      refinement_key = Printf.sprintf "%s|rc|alpha=%.17g%s" mfp alpha seed;
    }

let fingerprint t request = (keys_of request (validate t request)).fingerprint

let class_info t key =
  match Hashtbl.find_opt t.classes key with
  | Some info -> info
  | None ->
    let info =
      {
        requests = 0;
        repeats = 0;
        executions = 0;
        exec_seconds = 0.;
        exec_units = 0;
        probes = 0;
        probe_seconds = 0.;
        results = Cache.variance_tracker ();
      }
    in
    Hashtbl.replace t.classes key info;
    info

let effective_units ~requested ~floor_units ~time_left ~per_unit_cost =
  match time_left with
  | None -> requested
  | Some left when left <= 0. -> Stdlib.min requested floor_units
  | Some left -> (
    match per_unit_cost with
    | Some cpu when cpu > 0. ->
      let affordable = int_of_float (left /. cpu) in
      Stdlib.min requested (Stdlib.max floor_units affordable)
    | _ -> requested)

(* The one model × kind sampling match: the per-replication query
   samples of [reps] replications on the streams split off [root]. A
   one-shot execution draws on a fresh seed root, a session batch on a
   [slice_root]; composite estimates have no sample array. *)
let draw ?pool model kind root ~reps =
  match (model, kind) with
  | Mcdb { db; query }, (Mcdb_mean _ | Mcdb_tail _) ->
    Database.monte_carlo ?pool db root ~reps ~query
  | Bundle_model { db; table; plan }, (Mcdb_mean _ | Mcdb_tail _) ->
    Database.plan_samples ?pool db root ~table ~reps plan
  | Chain_model { chain; query }, Chain_mean { steps; _ } ->
    Chain.final_values ?pool chain root ~steps ~reps ~query
  | _ -> assert false (* ruled out by [validate] and the composite arms *)

let estimate kind samples =
  match kind with
  | Mcdb_mean _ | Chain_mean _ ->
    let est = Est.of_samples samples in
    (est.Est.mean, Some est.Est.ci95)
  | Mcdb_tail { p; _ } ->
    (* Point estimate and CI share one sort of the samples. *)
    let q, ci = Est.tail_estimate samples ~p ~level:0.95 in
    (q, Some ci)
  | Composite_estimate _ ->
    invalid_arg "Server.estimate: a composite estimate is not a reduction of samples"

(* Runs on a scheduler domain: reads only its captured snapshot, returns
   timing for the caller to fold into the class statistics. *)
let execute ~clock ~model ~kind ~seed ~per_unit_cost ~time_left =
  let requested = units_of kind in
  let floor_units = floor_units kind in
  let units = effective_units ~requested ~floor_units ~time_left ~per_unit_cost in
  let t0 = clock () in
  let root = Rng.create ~seed () in
  let xvalue, xci95 =
    match (model, kind) with
    | Composite stages, Composite_estimate { alpha; _ } ->
      ((Rc.estimate stages root ~n:units ~alpha).Rc.theta_hat, None)
    | _ -> estimate kind (draw model kind root ~reps:units)
  in
  { xvalue; xci95; xunits = units; xseconds = clock () -. t0 }

let submit t request =
  let model = validate t request in
  let { fingerprint = fp; class_key; _ } = keys_of request model in
  let cls = class_info t class_key in
  cls.requests <- cls.requests + 1;
  if Hashtbl.mem t.seen fp then cls.repeats <- cls.repeats + 1
  else remember t fp;
  let probe_start = t.clock () in
  let cached = Cache.find t.cache fp in
  let probe_end = t.clock () in
  cls.probes <- cls.probes + 1;
  cls.probe_seconds <- cls.probe_seconds +. (probe_end -. probe_start);
  match cached with
  | Some (value, ci95, reps_executed) ->
    let id = t.next_id in
    t.next_id <- id + 1;
    t.served <- t.served + 1;
    Mde_obs.Counter.incr t.metrics.m_cache_served;
    Mde_obs.Histogram.observe
      t.metrics.m_latency.(kind_index request.kind)
      (probe_end -. probe_start);
    let resp =
      {
        value;
        ci95;
        reps_requested = units_of request.kind;
        reps_executed;
        degraded = false;
        cache = Hit;
        latency = probe_end -. probe_start;
      }
    in
    t.ready <- (id, resp) :: t.ready;
    `Queued id
  | None -> (
    let per_unit_cost =
      if cls.exec_units > 0 then Some (cls.exec_seconds /. float_of_int cls.exec_units)
      else None
    in
    let clock = t.clock in
    let kind = request.kind and seed = request.seed in
    let run = execute ~clock ~model ~kind ~seed ~per_unit_cost in
    match
      Scheduler.submit t.sched ~class_key ?deadline:request.deadline run
    with
    | `Rejected ->
      t.rejected <- t.rejected + 1;
      `Rejected
    | `Accepted ticket ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.inflight ticket
        {
          id;
          fp;
          cls;
          requested = units_of request.kind;
          lat = t.metrics.m_latency.(kind_index request.kind);
        };
      `Queued id)

let admit_decision t cls =
  match t.admission with
  | Admit_all -> true
  | Cost_aware { min_gain; warmup } ->
    if cls.executions <= warmup then true
    else
      let compute_cost = cls.exec_seconds /. float_of_int cls.executions in
      let serve_cost =
        if cls.probes > 0 then
          Float.max 1e-9 (cls.probe_seconds /. float_of_int cls.probes)
        else 1e-9
      in
      let repeat_fraction = float_of_int cls.repeats /. float_of_int cls.requests in
      Cache.pays_off ~min_gain
        (Cache.class_statistics ~compute_cost ~serve_cost
           ~result_variance:(Cache.sample_variance cls.results)
           ~repeat_fraction)

let settle t completions =
  let executed =
    List.map
      (fun { Scheduler.ticket; result; latency } ->
        let fl =
          match Hashtbl.find_opt t.inflight ticket with
          | Some fl -> fl
          | None -> assert false
        in
        Hashtbl.remove t.inflight ticket;
        fl.cls.executions <- fl.cls.executions + 1;
        fl.cls.exec_seconds <- fl.cls.exec_seconds +. result.xseconds;
        fl.cls.exec_units <- fl.cls.exec_units + result.xunits;
        Cache.track fl.cls.results result.xvalue;
        let degraded = result.xunits < fl.requested in
        if degraded then begin
          t.degraded_count <- t.degraded_count + 1;
          Mde_obs.Counter.incr t.metrics.m_degraded
        end
        else
          Cache.add t.cache ~admit:(admit_decision t fl.cls) fl.fp
            (result.xvalue, result.xci95, result.xunits);
        t.served <- t.served + 1;
        Mde_obs.Histogram.observe fl.lat latency;
        ( fl.id,
          {
            value = result.xvalue;
            ci95 = result.xci95;
            reps_requested = fl.requested;
            reps_executed = result.xunits;
            degraded;
            cache = Miss;
            latency;
          } ))
      completions
  in
  let out = List.rev_append t.ready executed in
  t.ready <- [];
  List.sort (fun (a, _) (b, _) -> compare a b) out

(* Run the scheduler's [drain] or [shutdown], then release every
   request it ended without a completion — even when it raises — so
   each accepted request ends exactly once: answered, or in
   [unanswered]. *)
let finish t run =
  let release () =
    t.unanswered <-
      List.map
        (fun ticket ->
          let fl = Hashtbl.find t.inflight ticket in
          Hashtbl.remove t.inflight ticket;
          fl.id)
        (Scheduler.unanswered t.sched)
  in
  match run t.sched with
  | completions ->
    release ();
    settle t completions
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release ();
    Printexc.raise_with_backtrace e bt

let drain t = finish t Scheduler.drain

let shutdown t = finish t Scheduler.shutdown

let unanswered t = t.unanswered

let serve t request =
  match submit t request with
  | `Rejected -> `Rejected
  | `Queued id -> (
    match List.assoc_opt id (drain t) with
    | Some resp -> `Served resp
    | None -> assert false)

(* --- progressive-refinement hooks --- *)

(* The replication streams of a request are positional: the one-shot
   paths pre-split one stream per replication off a fresh seed root
   ([Rng.split_n], or [Bundle.of_stochastic_table]'s internal split),
   and [Rng.split] consumes exactly one [bits64] of its parent. So the
   root advanced past its first [lo] outputs yields streams lo, lo+1, …
   of the full run — which is what makes an incremental batch
   bit-identical to the same slice of any larger one-shot execution. *)
let slice_root ~seed ~lo =
  let root = Rng.create ~seed () in
  Rng.advance root lo;
  root

let refinement_key t request = (keys_of request (validate t request)).refinement_key

let sample_batch t request ~lo ~hi =
  let model = validate t request in
  if lo < 0 then invalid_arg "Server.sample_batch: lo must be >= 0";
  if hi <= lo then invalid_arg "Server.sample_batch: hi must be > lo";
  (match request.kind with
  | Composite_estimate _ ->
    invalid_arg
      "Server.sample_batch: composite estimates consume their RNG sequentially; \
       refine them by re-serving at a larger n"
  | _ -> ());
  draw ?pool:(Scheduler.pool t.sched) model request.kind
    (slice_root ~seed:request.seed ~lo)
    ~reps:(hi - lo)

type stats = {
  served : int;
  rejected : int;
  degraded : int;
  cache : Cache.counters;
  scheduler : Scheduler.counters;
}

let stats (t : t) =
  {
    served = t.served;
    rejected = t.rejected;
    degraded = t.degraded_count;
    cache = Cache.counters t.cache;
    scheduler = Scheduler.counters t.sched;
  }
