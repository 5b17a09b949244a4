module Rc = Mde_composite.Result_cache

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable expires : float;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  expirations : int;
  admission_rejections : int;
}

(* The exact mutable counters below stay authoritative (tests assert on
   them); the registry counters mirror them so one exporter sees the
   cache next to the scheduler and the pool. *)
type metrics = {
  m_hits : Mde_obs.Counter.t;
  m_misses : Mde_obs.Counter.t;
  m_evictions : Mde_obs.Counter.t;
  m_expirations : Mde_obs.Counter.t;
  m_admission_rejections : Mde_obs.Counter.t;
}

type 'a t = {
  cap : int;
  ttl : float;
  clock : unit -> float;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used: next eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable expirations : int;
  mutable admission_rejections : int;
  metrics : metrics;
}

let create ?obs ?(capacity = 256) ?(ttl = infinity) ?(clock = Mde_obs.Clock.wall) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  if not (ttl > 0.) then invalid_arg "Cache.create: ttl must be positive";
  let obs = match obs with Some o -> o | None -> Mde_obs.default () in
  let c name help = Mde_obs.counter obs ~help name in
  {
    cap = capacity;
    ttl;
    clock;
    tbl = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    expirations = 0;
    admission_rejections = 0;
    metrics =
      {
        m_hits = c "mde_serve_cache_hits_total" "Cache lookups that returned a value";
        m_misses = c "mde_serve_cache_misses_total" "Cache lookups that found nothing";
        m_evictions = c "mde_serve_cache_evictions_total" "LRU capacity evictions";
        m_expirations = c "mde_serve_cache_expirations_total" "TTL expirations";
        m_admission_rejections =
          c "mde_serve_cache_admission_rejections_total"
            "Results dropped by cost-aware admission";
      };
  }

let detach t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let delete t node =
  detach t node;
  Hashtbl.remove t.tbl node.key

let length t = Hashtbl.length t.tbl
let capacity t = t.cap
let expired t node = t.clock () > node.expires

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
    t.misses <- t.misses + 1;
    Mde_obs.Counter.incr t.metrics.m_misses;
    None
  | Some node when expired t node ->
    delete t node;
    t.expirations <- t.expirations + 1;
    t.misses <- t.misses + 1;
    Mde_obs.Counter.incr t.metrics.m_expirations;
    Mde_obs.Counter.incr t.metrics.m_misses;
    None
  | Some node ->
    t.hits <- t.hits + 1;
    Mde_obs.Counter.incr t.metrics.m_hits;
    detach t node;
    push_front t node;
    Some node.value

let add t ?(admit = true) key value =
  if not admit then begin
    t.admission_rejections <- t.admission_rejections + 1;
    Mde_obs.Counter.incr t.metrics.m_admission_rejections
  end
  else
    match Hashtbl.find_opt t.tbl key with
    | Some node ->
      node.value <- value;
      node.expires <- t.clock () +. t.ttl;
      detach t node;
      push_front t node
    | None ->
      if length t >= t.cap then (
        match t.tail with
        | Some lru ->
          (* A dead-on-arrival tail is an expiration, not a capacity
             eviction — the slot was already free in TTL terms, and
             counter totals must not depend on whether a probe noticed
             the expiry first. *)
          let was_expired = expired t lru in
          delete t lru;
          if was_expired then begin
            t.expirations <- t.expirations + 1;
            Mde_obs.Counter.incr t.metrics.m_expirations
          end
          else begin
            t.evictions <- t.evictions + 1;
            Mde_obs.Counter.incr t.metrics.m_evictions
          end
        | None -> ());
      let node = { key; value; expires = t.clock () +. t.ttl; prev = None; next = None } in
      Hashtbl.replace t.tbl key node;
      push_front t node

(* [mem] deletes and counts an expired entry exactly as [find] does
   (minus the miss — membership is a question, not a lookup), so
   (mem; find) and (find; mem) leave identical counter totals. *)
let mem t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> false
  | Some node when expired t node ->
    delete t node;
    t.expirations <- t.expirations + 1;
    Mde_obs.Counter.incr t.metrics.m_expirations;
    false
  | Some _ -> true

let keys_mru_first t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk (node.key :: acc) node.next
  in
  walk [] t.head

let counters t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    expirations = t.expirations;
    admission_rejections = t.admission_rejections;
  }

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

let clamp lo hi x = Float.max lo (Float.min hi x)

let class_statistics ~compute_cost ~serve_cost ~result_variance ~repeat_fraction =
  let repeat = clamp 0. 1. repeat_fraction in
  let v1 = Float.max 1e-12 result_variance in
  {
    Rc.c1 = Float.max 1e-12 compute_cost;
    c2 = Float.max 1e-12 serve_cost;
    v1;
    v2 = v1 *. (1. -. repeat);
  }

let pays_off ?(min_gain = 1. +. 1e-9) stats = Rc.efficiency_gain stats >= min_gain

(* Welford's running mean and sum of squared deviations. *)
type variance_tracker = { mutable count : int; mutable mean : float; mutable m2 : float }

let variance_tracker () = { count = 0; mean = 0.; m2 = 0. }

let track v x =
  v.count <- v.count + 1;
  let delta = x -. v.mean in
  v.mean <- v.mean +. (delta /. float_of_int v.count);
  v.m2 <- v.m2 +. (delta *. (x -. v.mean))

let sample_variance v = if v.count >= 2 then v.m2 /. float_of_int (v.count - 1) else 0.
