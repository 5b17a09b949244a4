type config = { queue_capacity : int; batch_size : int }

let default_config = { queue_capacity = 64; batch_size = 8 }

type 'a item = {
  ticket : int;
  class_key : string;
  deadline : float option;  (* absolute, on the scheduler clock *)
  submitted_at : float;
  run : time_left:float option -> 'a;
}

type 'a completion = { ticket : int; result : 'a; latency : float }

type counters = {
  submitted : int;
  rejected : int;
  completed : int;
  failed : int;
  batches : int;
  abandoned : int;
}

type metrics = {
  m_queue_depth : Mde_obs.Gauge.t;
  m_batch_size : Mde_obs.Histogram.t;
  m_rejections : Mde_obs.Counter.t;
}

type 'a t = {
  config : config;
  pool : Mde_par.Pool.t option;
  clock : unit -> float;
  mutable queue : 'a item list;  (* newest first; reversed at drain *)
  mutable stashed : 'a completion list;
      (* completions collected by a drain that raised, delivered by the
         next drain so accepted work is never lost *)
  mutable unanswered : int list;
      (* tickets the last drain or shutdown ended without a completion *)
  mutable pending : int;
  mutable next_ticket : int;
  mutable submitted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable failed : int;
  mutable batches : int;
  mutable abandoned : int;
  mutable closed : bool;
  metrics : metrics;
}

let create ?pool ?(clock = Mde_obs.Clock.wall) ?obs config =
  if config.queue_capacity < 1 then
    invalid_arg "Scheduler.create: queue_capacity must be >= 1";
  if config.batch_size < 1 then invalid_arg "Scheduler.create: batch_size must be >= 1";
  let obs = match obs with Some o -> o | None -> Mde_obs.default () in
  {
    config;
    pool;
    clock;
    queue = [];
    stashed = [];
    unanswered = [];
    pending = 0;
    next_ticket = 0;
    submitted = 0;
    rejected = 0;
    completed = 0;
    failed = 0;
    batches = 0;
    abandoned = 0;
    closed = false;
    metrics =
      {
        m_queue_depth =
          Mde_obs.gauge obs ~help:"Requests waiting in the scheduler queue"
            "mde_sched_queue_depth";
        m_batch_size =
          Mde_obs.histogram obs ~help:"Compatible requests fused per pool fan-out"
            ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
            "mde_sched_batch_size";
        m_rejections =
          Mde_obs.counter obs ~help:"Backpressure rejections at the high-water mark"
            "mde_sched_rejections_total";
      };
  }

let pending t = t.pending
let pool t = t.pool
let unanswered t = List.sort compare t.unanswered

let submit t ~class_key ?deadline run =
  if t.closed then invalid_arg "Scheduler.submit: scheduler is shut down";
  if t.pending >= t.config.queue_capacity then (
    t.rejected <- t.rejected + 1;
    Mde_obs.Counter.incr t.metrics.m_rejections;
    `Rejected)
  else begin
    let now = t.clock () in
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    let item =
      {
        ticket;
        class_key;
        deadline = Option.map (fun d -> now +. d) deadline;
        submitted_at = now;
        run;
      }
    in
    t.queue <- item :: t.queue;
    t.pending <- t.pending + 1;
    t.submitted <- t.submitted + 1;
    Mde_obs.Gauge.set t.metrics.m_queue_depth (float_of_int t.pending);
    `Accepted ticket
  end

(* Take up to [batch_size] items compatible with the head's class, in
   arrival order; return them with the rest of the queue (still in
   arrival order). *)
let take_batch config = function
  | [] -> ([], [])
  | first :: _ as queue ->
    let rec go taken n rest = function
      | item :: tl when n < config.batch_size && item.class_key = first.class_key ->
        go (item :: taken) (n + 1) rest tl
      | item :: tl -> go taken n (item :: rest) tl
      | [] -> (List.rev taken, List.rev rest)
    in
    go [] 0 [] queue

let drain t =
  (* Completions rescued from a previous drain that raised go out first. *)
  let completions = ref t.stashed in
  t.stashed <- [];
  t.unanswered <- [];
  (* Oldest first. *)
  let queue = ref (List.rev t.queue) in
  t.queue <- [];
  (* First failure seen, re-raised once its batch's siblings are
     accounted for. *)
  let error = ref None in
  (* Batch currently handed to the pool; non-empty only while a fan-out
     is in flight, so a failing dispatch can put it back. *)
  let in_flight = ref [] in
  let restore () =
    (* Re-stash the unprocessed remainder (newest first) and bank the
       completions already collected for the next drain: one failing
       request must not destroy accepted work. *)
    t.queue <- List.rev !queue;
    t.stashed <- !completions;
    Mde_obs.Gauge.set t.metrics.m_queue_depth (float_of_int t.pending)
  in
  (try
     while !queue <> [] && !error = None do
       let batch, rest = take_batch t.config !queue in
       in_flight := batch;
       queue := rest;
       Mde_obs.Histogram.observe t.metrics.m_batch_size
         (float_of_int (List.length batch));
       let dispatch = t.clock () in
       (* Each closure is wrapped to capture its own outcome, so the pool
          fan-out itself never raises on a user exception and sibling
          results in the same batch survive a failing request. *)
       let runs =
         Array.of_list
           (List.map
              (fun item ->
                let time_left = Option.map (fun d -> d -. dispatch) item.deadline in
                fun () ->
                  match item.run ~time_left with
                  | v -> Ok v
                  | exception e -> Error (e, Printexc.get_raw_backtrace ()))
              batch)
       in
       let results =
         Mde_par.Pool.map ?pool:t.pool ~site:"serve.batch" (fun f -> f ()) runs
       in
       let finished = t.clock () in
       in_flight := [];
       t.batches <- t.batches + 1;
       List.iteri
         (fun i (item : _ item) ->
           t.pending <- t.pending - 1;
           match results.(i) with
           | Ok result ->
             t.completed <- t.completed + 1;
             completions :=
               { ticket = item.ticket; result; latency = finished -. item.submitted_at }
               :: !completions
           | Error (e, bt) ->
             t.failed <- t.failed + 1;
             t.unanswered <- item.ticket :: t.unanswered;
             if !error = None then error := Some (e, bt))
         batch;
       Mde_obs.Gauge.set t.metrics.m_queue_depth (float_of_int t.pending)
     done
   with exn ->
     (* The fan-out itself failed (e.g. a shut-down pool): the batch
        never ran, so put it back in front of the remainder. *)
     queue := !in_flight @ !queue;
     restore ();
     raise exn);
  match !error with
  | Some (e, bt) ->
    restore ();
    Printexc.raise_with_backtrace e bt
  | None -> List.sort (fun a b -> compare a.ticket b.ticket) !completions

(* Completions banked by a failed drain used to be silently lost when
   the scheduler was dropped before the next drain: deliver them here
   instead, and account every undispatched item exactly once. *)
let shutdown t =
  if t.closed then begin
    t.unanswered <- [];
    []
  end
  else begin
    t.closed <- true;
    let banked = t.stashed in
    t.stashed <- [];
    t.unanswered <- List.map (fun (item : _ item) -> item.ticket) t.queue;
    t.abandoned <- t.abandoned + t.pending;
    t.pending <- 0;
    t.queue <- [];
    Mde_obs.Gauge.set t.metrics.m_queue_depth 0.;
    List.sort (fun a b -> compare a.ticket b.ticket) banked
  end

let counters t =
  {
    submitted = t.submitted;
    rejected = t.rejected;
    completed = t.completed;
    failed = t.failed;
    batches = t.batches;
    abandoned = t.abandoned;
  }
