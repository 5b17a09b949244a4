type t = {
  queue : (t -> unit) Event_queue.t;
  mutable clock : float;
  mutable processed : int;
}

let create () = { queue = Event_queue.create (); clock = 0.; processed = 0 }
let now t = t.clock
let events_processed t = t.processed

let schedule_at t ~time handler =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g precedes the clock %g" time t.clock);
  Event_queue.add t.queue ~time handler

let schedule t ~delay handler =
  if not (delay >= 0.) then invalid_arg "Engine.schedule: delay must be non-negative";
  schedule_at t ~time:(t.clock +. delay) handler

let run ?until ?max_events t =
  let horizon = Option.value until ~default:infinity in
  let budget = Option.value max_events ~default:max_int in
  let continue_ = ref true in
  while !continue_ && t.processed < budget do
    match Event_queue.peek_time t.queue with
    | None -> continue_ := false
    | Some time when time > horizon ->
      t.clock <- horizon;
      continue_ := false
    | Some _ -> (
      match Event_queue.pop t.queue with
      | Some (time, handler) ->
        t.clock <- time;
        t.processed <- t.processed + 1;
        handler t
      | None -> continue_ := false)
  done;
  if Option.is_some until && t.clock < horizon && Event_queue.is_empty t.queue then
    t.clock <- horizon

let pending t = Event_queue.size t.queue
