module Rng = Mde_prob.Rng
module Dist = Mde_prob.Dist

type params = { arrival_rate : float; service_rate : float; servers : int }

type results = {
  customers_served : int;
  mean_wait_in_queue : float;
  mean_time_in_system : float;
  mean_queue_length : float;
  utilization : float;
  simulated_time : float;
}

type state = {
  mutable busy : int;
  waiting : float Queue.t;  (* arrival times of queued customers *)
  mutable served : int;
  mutable measured : int;
  mutable wait_sum : float;
  mutable system_sum : float;
  (* Time-integrals for L_q and utilization. *)
  mutable last_change : float;
  mutable queue_area : float;
  mutable busy_area : float;
}

let simulate ?warmup_customers params ~customers rng =
  if not (params.arrival_rate > 0. && params.service_rate > 0. && params.servers >= 1) then
    invalid_arg "Queueing.simulate: rates must be positive and servers at least 1";
  if customers <= 0 then invalid_arg "Queueing.simulate: customers must be at least 1";
  let warmup =
    match warmup_customers with Some w -> w | None -> customers / 10
  in
  let engine = Engine.create () in
  let st =
    {
      busy = 0;
      waiting = Queue.create ();
      served = 0;
      measured = 0;
      wait_sum = 0.;
      system_sum = 0.;
      last_change = 0.;
      queue_area = 0.;
      busy_area = 0.;
    }
  in
  let advance_areas engine =
    let t = Engine.now engine in
    let dt = t -. st.last_change in
    st.queue_area <- st.queue_area +. (dt *. float_of_int (Queue.length st.waiting));
    st.busy_area <- st.busy_area +. (dt *. float_of_int st.busy);
    st.last_change <- t
  in
  let exp_sample rate = Dist.sample (Dist.Exponential { rate }) rng in
  let record_completion arrival start engine =
    let depart = Engine.now engine in
    st.served <- st.served + 1;
    if st.served > warmup then begin
      st.measured <- st.measured + 1;
      st.wait_sum <- st.wait_sum +. (start -. arrival);
      st.system_sum <- st.system_sum +. (depart -. arrival)
    end
  in
  let rec begin_service arrival engine =
    let start = Engine.now engine in
    Engine.schedule engine ~delay:(exp_sample params.service_rate) (fun engine ->
        advance_areas engine;
        record_completion arrival start engine;
        (* Server frees: pull the next waiting customer, if any. *)
        match Queue.take_opt st.waiting with
        | Some queued_arrival -> begin_service queued_arrival engine
        | None -> st.busy <- st.busy - 1)
  in
  let handle_arrival engine =
    advance_areas engine;
    if st.busy < params.servers then begin
      st.busy <- st.busy + 1;
      begin_service (Engine.now engine) engine
    end
    else Queue.add (Engine.now engine) st.waiting
  in
  let rec arrival_process engine =
    if st.served < customers + warmup then begin
      handle_arrival engine;
      Engine.schedule engine ~delay:(exp_sample params.arrival_rate) arrival_process
    end
  in
  Engine.schedule engine ~delay:(exp_sample params.arrival_rate) arrival_process;
  (* Run until enough customers completed (the arrival process stops
     feeding once the target is reached, draining the system). *)
  Engine.run engine;
  let total_time = Float.max 1e-12 (Engine.now engine) in
  let measured = max 1 st.measured in
  {
    customers_served = st.served;
    mean_wait_in_queue = st.wait_sum /. float_of_int measured;
    mean_time_in_system = st.system_sum /. float_of_int measured;
    mean_queue_length = st.queue_area /. total_time;
    utilization = st.busy_area /. total_time /. float_of_int params.servers;
    simulated_time = total_time;
  }

let factorial n =
  let acc = ref 1. in
  for k = 2 to n do
    acc := !acc *. float_of_int k
  done;
  !acc

let erlang_c params =
  let lambda = params.arrival_rate and mu = params.service_rate in
  let c = params.servers in
  let a = lambda /. mu in
  let rho = a /. float_of_int c in
  if not (rho < 1.) then
    invalid_arg "Queueing.erlang_c: the system must be stable (arrival_rate < servers * service_rate)";
  let sum = ref 0. in
  for k = 0 to c - 1 do
    sum := !sum +. ((a ** float_of_int k) /. factorial k)
  done;
  let tail = (a ** float_of_int c) /. (factorial c *. (1. -. rho)) in
  tail /. (!sum +. tail)

let theoretical_wq params =
  let lambda = params.arrival_rate and mu = params.service_rate in
  let c = float_of_int params.servers in
  erlang_c params /. ((c *. mu) -. lambda)

let theoretical_w params = theoretical_wq params +. (1. /. params.service_rate)
let theoretical_lq params = params.arrival_rate *. theoretical_wq params
let theoretical_utilization params =
  params.arrival_rate /. (float_of_int params.servers *. params.service_rate)
