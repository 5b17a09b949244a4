(* A persistent pool of worker domains with one chunk cursor per batch.

   The first-generation pool had three pathologies that made parallel
   runs *slower* than sequential on small-core machines (recorded in
   bench/BENCH_par.json at 0.04-0.09x): a fresh set of domains was
   spawned and joined around every [with_pool] call, every task went
   through one mutex-guarded shared queue, and [parallel_init] boxed
   every result in an option cell and unwrapped with a full extra pass.
   This version keeps domains alive across calls ([shared]), hands each
   fan-out to the domains as one batch record whose chunks are claimed
   with an atomic cursor, sizes chunks adaptively from measured per-item
   latency, takes a sequential fast path when a batch is too small to
   pay for a fan-out, and writes results unboxed into the final array.

   Every caller submits one flat batch of independent items (Monte
   Carlo replications, realizations, kernel block waves, key-code and
   probe chunks, map/reduce partitions, served requests), not a tree
   of spawns, so one shared cursor balances the load: a domain that
   finishes early simply claims the next chunk.

   Determinism is unchanged: the pool decides only *where* index [i]
   runs, never what it computes, so pooled output is bit-identical to
   sequential output for self-contained work items. *)

(* --- metrics and adaptive state ------------------------------------

   Registry metrics are bound at [create] (no-op registry = one branch
   per recording site). The adaptive chunk estimate is kept per *site*
   — a caller-supplied label naming the kind of work — because one pool
   serves workloads whose per-item cost spans six orders of magnitude
   (a Monte Carlo replication vs one columnar cell sweep); a single
   pooled estimate would missize every one of them. *)

type metrics = {
  obs : Mde_obs.t;
  obs_on : bool;
  domain_tasks : Mde_obs.Counter.t array;  (* index 0 = submitting domain *)
  m_batches : Mde_obs.Counter.t;
  m_seq : Mde_obs.Counter.t;
}

type site = {
  site_hist : Mde_obs.Histogram.t;  (* chunk wall seconds, labelled site=... *)
  site_chunk : Mde_obs.Gauge.t;  (* last adaptive chunk size chosen *)
  mutable per_item : float;  (* EWMA seconds per work item; 0. = unmeasured *)
}

(* One fan-out. [next] is the chunk cursor: every domain, the
   submitter included, claims chunk [Atomic.fetch_and_add next 1] until
   it passes [n_chunks]. [unfinished], [error] and [work_seconds] are
   guarded by the pool mutex. *)
type batch = {
  run_chunk : int -> unit;  (* runs chunk [c] *)
  n_chunks : int;
  next : int Atomic.t;
  mutable unfinished : int;
  mutable error : (exn * Printexc.raw_backtrace) option;
  mutable work_seconds : float;
  site : site;
}

type t = {
  mutex : Mutex.t;  (* open batches, batch completion, idle/wake protocol *)
  work_available : Condition.t;  (* a batch was opened, or the pool closes *)
  batch_done : Condition.t;  (* some batch's last chunk finished *)
  open_batches : batch Queue.t;  (* FIFO; a fully claimed head is dropped *)
  mutable closing : bool;
  mutable workers : unit Domain.t array;
  n_domains : int;
  (* Always-on counters for [stats]; slot 0 is shared by every
     submitting domain, so the slots are atomic. *)
  task_counts : int Atomic.t array;
  mutable batches : int;
  mutable seq_batches : int;
  sites : (string, site) Hashtbl.t;
  sites_lock : Mutex.t;
  metrics : metrics;
}

(* --- claiming and running chunks ------------------------------------ *)

let run_chunk pool i b c =
  let t0 = Mde_obs.Clock.wall () in
  (try b.run_chunk c
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Mutex.lock pool.mutex;
     if b.error = None then b.error <- Some (e, bt);
     Mutex.unlock pool.mutex);
  let dt = Mde_obs.Clock.wall () -. t0 in
  Atomic.incr pool.task_counts.(i);
  if pool.metrics.obs_on then begin
    Mde_obs.Histogram.observe b.site.site_hist dt;
    Mde_obs.Counter.incr pool.metrics.domain_tasks.(i)
  end;
  Mutex.lock pool.mutex;
  b.work_seconds <- b.work_seconds +. dt;
  b.unfinished <- b.unfinished - 1;
  if b.unfinished = 0 then Condition.broadcast pool.batch_done;
  Mutex.unlock pool.mutex

(* Claim and run chunks of [b] on domain [i] until none is left. *)
let rec drain pool i b =
  let c = Atomic.fetch_and_add b.next 1 in
  if c < b.n_chunks then begin
    run_chunk pool i b c;
    drain pool i b
  end

(* A worker drains the oldest open batch that still has unclaimed
   chunks, dropping fully claimed ones from the head of the FIFO; with
   none it sleeps on [work_available]. The check and the wait happen
   under the pool mutex, and submitters push and broadcast under the
   same mutex, so a wakeup can never be missed. A closing pool drains
   every open batch before the worker exits. *)
let rec worker_loop pool i =
  Mutex.lock pool.mutex;
  let rec next_batch () =
    match Queue.peek_opt pool.open_batches with
    | Some b when Atomic.get b.next < b.n_chunks -> Some b
    | Some _ ->
      ignore (Queue.pop pool.open_batches);
      next_batch ()
    | None when pool.closing -> None
    | None ->
      Condition.wait pool.work_available pool.mutex;
      next_batch ()
  in
  let b = next_batch () in
  Mutex.unlock pool.mutex;
  match b with
  | None -> ()
  | Some b ->
    drain pool i b;
    worker_loop pool i

(* --- lifecycle ------------------------------------------------------ *)

let create ?domains () =
  let n =
    match domains with
    | None -> Domain.recommended_domain_count ()
    | Some d -> d
  in
  if n < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let obs = Mde_obs.default () in
  let metrics =
    {
      obs;
      obs_on = Mde_obs.enabled obs;
      domain_tasks =
        Array.init n (fun i ->
            Mde_obs.counter obs ~help:"Pool chunks executed, by domain (0 = caller)"
              ~labels:[ ("domain", string_of_int i) ]
              "mde_pool_tasks_total");
      m_batches =
        Mde_obs.counter obs ~help:"Batches fanned out over the pool"
          "mde_pool_batches_total";
      m_seq =
        Mde_obs.counter obs
          ~help:"Batches run sequentially on the caller (below crossover or 1 domain)"
          "mde_pool_seq_batches_total";
    }
  in
  let pool =
    {
      mutex = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      open_batches = Queue.create ();
      closing = false;
      workers = [||];
      n_domains = n;
      task_counts = Array.init n (fun _ -> Atomic.make 0);
      batches = 0;
      seq_batches = 0;
      sites = Hashtbl.create 8;
      sites_lock = Mutex.create ();
      metrics;
    }
  in
  pool.workers <-
    Array.init (n - 1) (fun i -> Domain.spawn (fun () -> worker_loop pool (i + 1)));
  pool

let domains pool = pool.n_domains

let shutdown pool =
  Mutex.lock pool.mutex;
  if pool.closing then Mutex.unlock pool.mutex
  else begin
    pool.closing <- true;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.mutex;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* The process-wide pools: spawned once per distinct size, reused by
   every later [shared] call, shut down at exit. This is what kills the
   spawn-per-call overhead in the bench and serving paths — a domain
   costs milliseconds to start, which used to be paid inside loops whose
   entire work was milliseconds. *)
let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4
let shared_lock = Mutex.create ()
let shared_cleanup_installed = ref false

let shared ?domains () =
  let n =
    match domains with
    | None -> Domain.recommended_domain_count ()
    | Some d -> d
  in
  if n < 1 then invalid_arg "Pool.shared: domains must be >= 1";
  Mutex.lock shared_lock;
  if not !shared_cleanup_installed then begin
    shared_cleanup_installed := true;
    at_exit (fun () ->
        Mutex.lock shared_lock;
        let pools = Hashtbl.fold (fun _ p acc -> p :: acc) shared_pools [] in
        Hashtbl.reset shared_pools;
        Mutex.unlock shared_lock;
        List.iter shutdown pools)
  end;
  let pool =
    match Hashtbl.find_opt shared_pools n with
    | Some p when not p.closing -> p
    | _ ->
      let p = create ~domains:n () in
      Hashtbl.replace shared_pools n p;
      p
  in
  Mutex.unlock shared_lock;
  pool

(* --- adaptive chunking ---------------------------------------------- *)

(* Below this much *total* sequential work a fan-out cannot pay for its
   own dispatch (opening a batch, wakeups, cross-domain cache traffic), so
   the batch runs on the caller. *)
let crossover_seconds = 50e-6

(* Preferred wall time per chunk once the per-item cost is known: coarse
   enough that dispatch is noise, fine enough that a batch still splits
   across domains. *)
let target_chunk_seconds = 10e-3

(* Never choose chunks cheaper than this even when load balance asks for
   more splits — tiny chunks are how the old pool drowned in dispatch. *)
let min_chunk_seconds = 200e-6

let ewma_weight = 0.3

let find_site pool name =
  Mutex.lock pool.sites_lock;
  let s =
    match Hashtbl.find_opt pool.sites name with
    | Some s -> s
    | None ->
      let m = pool.metrics in
      let s =
        {
          site_hist =
            Mde_obs.histogram m.obs ~help:"Wall seconds per executed pool chunk"
              ~labels:[ ("site", name) ]
              "mde_pool_chunk_seconds";
          site_chunk =
            Mde_obs.gauge m.obs
              ~help:"Adaptive chunk size chosen for the site's last fan-out"
              ~labels:[ ("site", name) ]
              "mde_pool_chunk_size";
          per_item = 0.;
        }
      in
      Hashtbl.replace pool.sites name s;
      s
  in
  Mutex.unlock pool.sites_lock;
  s

(* Clock resolution can read a cheap batch as zero seconds; the 1ns/item
   floor keeps such a measurement meaningfully "known and tiny" rather
   than resetting the estimate to unmeasured. *)
let update_site pool s ~items ~seconds =
  if items > 0 then begin
    let sample = Float.max (seconds /. float_of_int items) 1e-9 in
    Mutex.lock pool.sites_lock;
    s.per_item <-
      (if s.per_item <= 0. then sample
       else ((1. -. ewma_weight) *. s.per_item) +. (ewma_weight *. sample));
    Mutex.unlock pool.sites_lock
  end

let default_chunk pool n =
  (* Unmeasured site: aim for ~4 chunks per domain — fine enough to
     balance uneven work, coarse enough to keep dispatch negligible. *)
  max 1 ((n + (4 * pool.n_domains) - 1) / (4 * pool.n_domains))

let adaptive_chunk pool s n =
  if s.per_item <= 0. then default_chunk pool n
  else begin
    let by_target = int_of_float (target_chunk_seconds /. s.per_item) in
    let floor_cost = int_of_float (ceil (min_chunk_seconds /. s.per_item)) in
    let balance_cap = max 1 (n / (2 * pool.n_domains)) in
    max 1 (min n (max (min by_target balance_cap) floor_cost))
  end

let estimated_item_seconds pool ~site =
  Mutex.lock pool.sites_lock;
  let v =
    match Hashtbl.find_opt pool.sites site with
    | Some s when s.per_item > 0. -> Some s.per_item
    | _ -> None
  in
  Mutex.unlock pool.sites_lock;
  v

(* --- batch execution ------------------------------------------------ *)

(* Run [run_chunk lo hi] for each chunk of [0, n) as one open batch.
   The submitting domain claims chunks of its own batch like any worker
   and then sleeps only until the chunks other domains already claimed
   finish. It never waits on a chunk nobody runs, so a chunk that
   submits to its own pool cannot deadlock. Exactly one exception — the
   first, in completion order — survives the batch and is re-raised on
   the caller once every chunk has finished, so a failing batch never
   leaves chunks behind to corrupt a later one. *)
let parallel_chunks pool site ~n ~chunk run_chunk =
  let n_chunks = (n + chunk - 1) / chunk in
  let b =
    {
      run_chunk = (fun c -> run_chunk (c * chunk) (min n ((c + 1) * chunk)));
      n_chunks;
      next = Atomic.make 0;
      unfinished = n_chunks;
      error = None;
      work_seconds = 0.;
      site;
    }
  in
  Mutex.lock pool.mutex;
  if pool.closing then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Pool: submitted to a shut-down pool"
  end;
  pool.batches <- pool.batches + 1;
  if pool.metrics.obs_on then Mde_obs.Counter.incr pool.metrics.m_batches;
  Queue.push b pool.open_batches;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  drain pool 0 b;
  Mutex.lock pool.mutex;
  while b.unfinished > 0 do
    Condition.wait pool.batch_done pool.mutex
  done;
  Mutex.unlock pool.mutex;
  update_site pool site ~items:n ~seconds:b.work_seconds;
  match b.error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* The one batch driver behind [parallel_init] and [parallel_iter]
   ([fn] names it in errors): argument checks, then [seq ()] on the
   caller, metered, on a 1-domain pool, for one item, or below the
   site's crossover; otherwise [par run] with [run] spreading chunks of
   the chosen size over the pool. An empty batch is [empty] and touches
   no site. *)
let batch pool ~fn ~site ?chunk n ~empty ~seq ~par =
  if n < 0 then invalid_arg (Printf.sprintf "Pool.%s: negative length" fn);
  (* Validate before any fast-path branch: ~chunk:0 must be rejected on
     a 1-domain pool exactly as on a multi-domain one. *)
  (match chunk with
  | Some c when c < 1 -> invalid_arg (Printf.sprintf "Pool.%s: chunk must be >= 1" fn)
  | _ -> ());
  if pool.closing then invalid_arg "Pool: submitted to a shut-down pool";
  if n = 0 then empty
  else begin
    let s = find_site pool site in
    let sequential () =
      let t0 = Mde_obs.Clock.wall () in
      let out = seq () in
      let dt = Mde_obs.Clock.wall () -. t0 in
      Mutex.lock pool.mutex;
      pool.seq_batches <- pool.seq_batches + 1;
      Mutex.unlock pool.mutex;
      if pool.metrics.obs_on then begin
        Mde_obs.Counter.incr pool.metrics.m_seq;
        (* The whole batch ran as one caller-side chunk; record it so
           chunk latency is observable even on 1-domain pools. *)
        Mde_obs.Histogram.observe s.site_hist dt
      end;
      update_site pool s ~items:n ~seconds:dt;
      out
    in
    if pool.n_domains <= 1 || n = 1 then sequential ()
    else
      match chunk with
      | None when s.per_item > 0. && float_of_int n *. s.per_item < crossover_seconds
        ->
        sequential ()
      | _ ->
        let chunk =
          match chunk with Some c -> c | None -> adaptive_chunk pool s n
        in
        if pool.metrics.obs_on then
          Mde_obs.Gauge.set s.site_chunk (float_of_int chunk);
        par (parallel_chunks pool s ~n ~chunk)
  end

let parallel_init pool ?(site = "default") ?chunk n f =
  batch pool ~fn:"parallel_init" ~site ?chunk n ~empty:[||]
    ~seq:(fun () -> Array.init n f)
    ~par:(fun run ->
      (* Unboxed result writing: evaluation order of [f] is unspecified
         by contract, so the caller computes [f 0] up front to seed the
         result array, and every chunk writes its slots directly — no
         option boxing, no unwrap pass. Slot writes are disjoint across
         chunks and published to the caller by batch completion. *)
      let out = Array.make n (f 0) in
      run (fun lo hi ->
          for i = Stdlib.max lo 1 to hi - 1 do
            out.(i) <- f i
          done);
      out)

(* Pure side-effect fan-out: no result array is allocated — the caller's
   [f] writes wherever it writes. This is the fill shape the columnar
   engine uses ([flags.(i) <- ...], bigarray slots). *)
let parallel_iter pool ?(site = "default") ?chunk n f =
  let each lo hi =
    for i = lo to hi - 1 do
      f i
    done
  in
  batch pool ~fn:"parallel_iter" ~site ?chunk n ~empty:()
    ~seq:(fun () -> each 0 n)
    ~par:(fun run -> run each)

let parallel_map pool ?site ?chunk f a =
  parallel_init pool ?site ?chunk (Array.length a) (fun i -> f a.(i))

let map ?pool ?site f a =
  match pool with None -> Array.map f a | Some p -> parallel_map p ?site f a

let init ?pool ?site n f =
  match pool with None -> Array.init n f | Some p -> parallel_init p ?site n f

let iter ?pool ?site n f =
  match pool with
  | None ->
    for i = 0 to n - 1 do
      f i
    done
  | Some p -> parallel_iter p ?site n f

(* --- introspection -------------------------------------------------- *)

type stats = {
  stat_domains : int;
  batches : int;
  seq_batches : int;
  tasks : int array;
}

let stats pool =
  Mutex.lock pool.mutex;
  let s =
    {
      stat_domains = pool.n_domains;
      batches = pool.batches;
      seq_batches = pool.seq_batches;
      tasks = Array.map Atomic.get pool.task_counts;
    }
  in
  Mutex.unlock pool.mutex;
  s
