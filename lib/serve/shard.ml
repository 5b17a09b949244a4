type shed_reason = Shard_queue_full | Front_high_water
type shed = { shard : int; reason : shed_reason; depth : int; limit : int }

(* What kind of engine answers a registered name — drives the
   federation catalog's static preference and compatibility check. *)
type tag = Tmcdb | Tbundle | Tchain | Tcomposite

(* Bundle plans are statically preferred: one fused columnar sweep
   versus one full database realization per repetition. *)
let rank_of = function Tbundle -> 0 | Tmcdb | Tchain | Tcomposite -> 1
let group_of = function Tmcdb | Tbundle -> `Sim | Tchain -> `Chain | Tcomposite -> `Comp

type backend = {
  b_name : string;
  b_rank : int;
  mutable b_runs : int;  (* executed (non-degraded cache misses) observed *)
  mutable b_seconds : float;  (* their summed serving latency *)
}

type fed = { primary : string; backends : backend list }

type metrics = {
  m_routed : Mde_obs.Counter.t array;
  m_shed : Mde_obs.Counter.t array;
  m_depth : Mde_obs.Gauge.t array;
  m_outstanding : Mde_obs.Gauge.t;
  m_imbalance : Mde_obs.Gauge.t;
}

type t = {
  servers : Server.t array;
  router : Router.t;
  queue_capacity : int;  (* each shard's scheduler high-water mark *)
  high_water : int;  (* aggregate outstanding cap across the front *)
  tags : (string, tag * int) Hashtbl.t;  (* name -> engine tag, registration order *)
  federated : (string, fed) Hashtbl.t;
  inflight : (int * int, int * backend option) Hashtbl.t;
      (* (shard, server id) -> front id + the backend to charge *)
  banked : (int * Server.response) list array;
      (* per shard: responses a raising drain collected, delivered by the
         next drain *)
  mutable next_id : int;
  mutable outstanding : int;
  depth : int array;  (* outstanding per shard *)
  routed : int array;
  shed_count : int array;
  mutable shed_front : int;
  metrics : metrics;
}

let create ?pool ?(clock = Mde_obs.Clock.wall) ?obs ?cache_capacity ?cache_ttl
    ?(scheduler = Scheduler.default_config) ?admission ?high_water ~shards () =
  let router = Router.create ~shards in
  let high_water =
    match high_water with Some hw -> hw | None -> shards * scheduler.Scheduler.queue_capacity
  in
  if high_water < 1 then invalid_arg "Shard.create: high_water must be >= 1";
  let obs = match obs with Some o -> o | None -> Mde_obs.default () in
  let servers =
    Array.init shards (fun _ ->
        Server.create ?pool ~clock ~obs ?cache_capacity ?cache_ttl ~scheduler
          ?admission ())
  in
  let shard_label i = [ ("shard", string_of_int i) ] in
  {
    servers;
    router;
    queue_capacity = scheduler.Scheduler.queue_capacity;
    high_water;
    tags = Hashtbl.create 8;
    federated = Hashtbl.create 4;
    inflight = Hashtbl.create 64;
    banked = Array.make shards [];
    next_id = 0;
    outstanding = 0;
    depth = Array.make shards 0;
    routed = Array.make shards 0;
    shed_count = Array.make shards 0;
    shed_front = 0;
    metrics =
      {
        m_routed =
          Array.init shards (fun i ->
              Mde_obs.counter obs ~help:"Requests routed to and accepted by this shard"
                ~labels:(shard_label i) "mde_shard_routed_total");
        m_shed =
          Array.init shards (fun i ->
              Mde_obs.counter obs
                ~help:"Requests shed at admission, charged to the routed shard"
                ~labels:(shard_label i) "mde_shard_shed_total");
        m_depth =
          Array.init shards (fun i ->
              Mde_obs.gauge obs ~help:"Accepted but undelivered requests on this shard"
                ~labels:(shard_label i) "mde_shard_depth");
        m_outstanding =
          Mde_obs.gauge obs ~help:"Accepted but undelivered requests across the front"
            "mde_shard_outstanding";
        m_imbalance =
          Mde_obs.gauge obs
            ~help:"Max/mean accepted submissions across shards (1 = balanced)"
            "mde_shard_imbalance";
      };
  }

let shards t = Array.length t.servers
let router t = t.router

let imbalance t =
  let total = Array.fold_left ( + ) 0 t.routed in
  if total = 0 then nan
  else
    let mean = float_of_int total /. float_of_int (shards t) in
    float_of_int (Array.fold_left Stdlib.max 0 t.routed) /. mean

(* --- registration --- *)

let check_fresh t name =
  if Hashtbl.mem t.federated name then
    invalid_arg (Printf.sprintf "Shard: %S is already a federated name" name)

let register_all t name tag register =
  check_fresh t name;
  (* The first shard's [Server.register] raises on duplicates before any
     state changes; the rest then cannot fail. *)
  Array.iter register t.servers;
  Hashtbl.replace t.tags name (tag, Hashtbl.length t.tags)

let register_mcdb t ~name ~query db =
  register_all t name Tmcdb (fun s -> Server.register_mcdb s ~name ~query db)

let register_mcdb_plan t ~name ~table ~plan db =
  register_all t name Tbundle (fun s -> Server.register_mcdb_plan s ~name ~table ~plan db)

let register_chain t ~name ~query chain =
  register_all t name Tchain (fun s -> Server.register_chain s ~name ~query chain)

let register_composite t ~name stages =
  register_all t name Tcomposite (fun s -> Server.register_composite s ~name stages)

let federate t ~name ~backends =
  check_fresh t name;
  if Hashtbl.mem t.tags name then
    invalid_arg (Printf.sprintf "Shard: %S is already a registered backend" name);
  if backends = [] then invalid_arg "Shard.federate: empty backend list";
  let resolved =
    List.map
      (fun b ->
        match Hashtbl.find_opt t.tags b with
        | Some (tag, order) -> (b, tag, order)
        | None -> invalid_arg (Printf.sprintf "Shard.federate: unknown backend %S" b))
      backends
  in
  (match resolved with
  | (_, first, _) :: rest ->
    List.iter
      (fun (b, tag, _) ->
        if group_of tag <> group_of first then
          invalid_arg
            (Printf.sprintf "Shard.federate: backend %S cannot answer the same queries" b))
      rest
  | [] -> assert false);
  let backends =
    List.map
      (fun (b, tag, order) -> ((rank_of tag, order), { b_name = b; b_rank = rank_of tag; b_runs = 0; b_seconds = 0. }))
      resolved
    |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)
    |> List.map snd
  in
  Hashtbl.replace t.federated name
    { primary = (List.hd backends).b_name; backends }

(* Probe each backend once in preference order, then settle on the
   lowest observed mean latency (ties break toward the preference
   order, which the sorted list encodes). *)
let choose fed =
  match List.find_opt (fun b -> b.b_runs = 0) fed.backends with
  | Some b -> b
  | None ->
    List.fold_left
      (fun best b ->
        if b.b_seconds /. float_of_int b.b_runs
           < best.b_seconds /. float_of_int best.b_runs
        then b
        else best)
      (List.hd fed.backends) (List.tl fed.backends)

let resolve t (request : Server.request) =
  match Hashtbl.find_opt t.federated request.Server.model with
  | None -> (request, None)
  | Some fed ->
    let b = choose fed in
    ({ request with Server.model = b.b_name }, Some b)

let backend_for t request = (fst (resolve t request)).Server.model

(* A federated request is keyed as its statically-preferred backend, so
   neither the shard placement of a logical query (its routing
   fingerprint) nor a session's sample store (its refinement key) moves
   when the cost-based catalog changes backends; executions may use any
   backend because federated backends are bit-identical by contract. *)
let primary t (request : Server.request) =
  match Hashtbl.find_opt t.federated request.Server.model with
  | None -> request
  | Some fed -> { request with Server.model = fed.primary }

let fingerprint t request = Server.fingerprint t.servers.(0) (primary t request)

let shard_of t request = Router.route t.router (fingerprint t request)

(* --- serving --- *)

let set_gauges t shard =
  Mde_obs.Gauge.set t.metrics.m_depth.(shard) (float_of_int t.depth.(shard));
  Mde_obs.Gauge.set t.metrics.m_outstanding (float_of_int t.outstanding);
  let im = imbalance t in
  if Float.is_finite im then Mde_obs.Gauge.set t.metrics.m_imbalance im

let shed_at t shard reason ~depth ~limit =
  t.shed_count.(shard) <- t.shed_count.(shard) + 1;
  if reason = Front_high_water then t.shed_front <- t.shed_front + 1;
  Mde_obs.Counter.incr t.metrics.m_shed.(shard);
  `Shed { shard; reason; depth; limit }

let submit t request =
  let fp = fingerprint t request in
  let shard = Router.route t.router fp in
  let resolved, backend = resolve t request in
  if t.outstanding >= t.high_water then
    shed_at t shard Front_high_water ~depth:t.outstanding ~limit:t.high_water
  else
    match Server.submit t.servers.(shard) resolved with
    | `Rejected ->
      shed_at t shard Shard_queue_full ~depth:t.queue_capacity ~limit:t.queue_capacity
    | `Queued sid ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.inflight (shard, sid) (id, backend);
      t.outstanding <- t.outstanding + 1;
      t.depth.(shard) <- t.depth.(shard) + 1;
      t.routed.(shard) <- t.routed.(shard) + 1;
      Mde_obs.Counter.incr t.metrics.m_routed.(shard);
      set_gauges t shard;
      `Queued id

(* End the request [sid] of [shard]: it leaves the front's books. *)
let release t shard sid =
  let entry = Hashtbl.find t.inflight (shard, sid) in
  Hashtbl.remove t.inflight (shard, sid);
  t.outstanding <- t.outstanding - 1;
  t.depth.(shard) <- t.depth.(shard) - 1;
  entry

let deliver t per_server =
  let out = ref [] in
  Array.iteri
    (fun shard completions ->
      List.iter
        (fun (sid, (resp : Server.response)) ->
          let id, backend = release t shard sid in
          (* Only real executions inform the federation cost estimate:
             a cache hit's latency measures the probe, not the backend. *)
          (match backend with
          | Some b when resp.Server.cache = Server.Miss && not resp.Server.degraded ->
            b.b_runs <- b.b_runs + 1;
            b.b_seconds <- b.b_seconds +. resp.Server.latency
          | _ -> ());
          out := (id, resp) :: !out)
        completions;
      set_gauges t shard)
    per_server;
  List.sort (fun (a, _) (b, _) -> compare a b) !out

(* Run [finish] ({!Server.drain} or {!Server.shutdown}) on every shard,
   even when one raises, and release every request a shard ended
   without a response. If one raised, the others' responses are banked
   for the next drain and the first exception propagates; otherwise
   everything, banked responses included, is delivered. *)
let finish_all t finish =
  let error = ref None in
  let per_server =
    Array.mapi
      (fun shard server ->
        let responses =
          match finish server with
          | responses -> responses
          | exception e ->
            if !error = None then error := Some (e, Printexc.get_raw_backtrace ());
            []
        in
        List.iter (fun sid -> ignore (release t shard sid)) (Server.unanswered server);
        let all = t.banked.(shard) @ responses in
        t.banked.(shard) <- [];
        all)
      t.servers
  in
  match !error with
  | None -> deliver t per_server
  | Some (e, bt) ->
    Array.iteri
      (fun shard responses ->
        t.banked.(shard) <- responses;
        set_gauges t shard)
      per_server;
    Printexc.raise_with_backtrace e bt

let drain t = finish_all t Server.drain
let shutdown t = finish_all t Server.shutdown

let serve t request =
  match submit t request with
  | `Shed s -> `Shed s
  | `Queued id -> (
    match List.assoc_opt id (drain t) with
    | Some resp -> `Served resp
    | None -> assert false)

(* --- progressive-refinement hooks --- *)

let refinement_key t request = Server.refinement_key t.servers.(0) (primary t request)

let sample_batch t request ~lo ~hi =
  let resolved, _ = resolve t request in
  Server.sample_batch t.servers.(shard_of t request) resolved ~lo ~hi

type stats = {
  routed : int array;
  shed : int array;
  shed_front : int;
  outstanding : int;
  servers : Server.stats array;
}

let stats (t : t) =
  {
    routed = Array.copy t.routed;
    shed = Array.copy t.shed_count;
    shed_front = t.shed_front;
    outstanding = t.outstanding;
    servers = Array.map Server.stats t.servers;
  }
