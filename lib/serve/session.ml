module Rc = Mde_composite.Result_cache

type planner = Explore | Round_robin

type config = { tick_reps : int; min_batch : int; min_gain : float }

let default_config = { tick_reps = 64; min_batch = 8; min_gain = 1. +. 1e-9 }

type update = {
  id : int;
  value : float;
  ci95 : (float * float) option;
  half_width : float;
  reps_done : int;
  reps_total : int;
  reps_reused : int;
  converged : bool;
}

(* One growing sample store per refinement key, shared by every handle
   (and watcher) whose request identifies the same replication stream.
   [len] is the filled prefix; its running variance feeds the g(α)
   variance input. *)
type entry = {
  e_request : Server.request;  (* a representative request, for refine calls *)
  mutable buf : float array;
  mutable len : int;
  moments : Cache.variance_tracker;
}

(* Composite estimates are not sliceable; their store caches the levels
   already served so key-mates adopt a level instead of re-serving it. *)
type centry = { mutable levels : (int * float) list (* level n -> theta_hat *) }

type progress = {
  pr_id : int;
  pr_request : Server.request;
  pr_key : string;
  pr_total : int;
  pr_floor : int;
  pr_composite : bool;
  mutable pr_done : int;
  mutable pr_reused : int;
  mutable pr_last : update option;
  mutable pr_open : bool;
}

type watcher = {
  w_id : int;
  w_request : Server.request;
  w_key : string;
  w_total : int;
  w_floor : int;
  w_composite : bool;
  w_cb : update -> unit;
  mutable w_seen : int;  (* store length (or composite level) last fired at *)
  mutable w_open : bool;
}

type handle = Query of progress | Watch of watcher

type metrics = {
  g_open : Mde_obs.Gauge.t;
  g_watchers : Mde_obs.Gauge.t;
  c_ticks : Mde_obs.Counter.t;
  c_fresh : Mde_obs.Counter.t;
  c_reused : Mde_obs.Counter.t;
  h_halfwidth : Mde_obs.Histogram.t;
}

type t = {
  mutable target : Target.t;
  planner : planner;
  config : config;
  entries : (string, entry) Hashtbl.t;
  centries : (string, centry) Hashtbl.t;
  mutable queries : progress list;  (* in open order *)
  mutable watchers : watcher list;
  mutable next_id : int;
  mutable rr_last : int;  (* id the round-robin planner allocated to last *)
  mutable ticks : int;
  mutable fresh : int;
  mutable reused : int;
  metrics : metrics;
}

let create ?(planner = Explore) ?(config = default_config) ?obs target =
  if config.tick_reps < 1 then invalid_arg "Session.create: tick_reps must be >= 1";
  if config.min_batch < 1 then invalid_arg "Session.create: min_batch must be >= 1";
  let obs = match obs with Some o -> o | None -> Mde_obs.default () in
  {
    target;
    planner;
    config;
    entries = Hashtbl.create 16;
    centries = Hashtbl.create 4;
    queries = [];
    watchers = [];
    next_id = 0;
    rr_last = -1;
    ticks = 0;
    fresh = 0;
    reused = 0;
    metrics =
      {
        g_open =
          Mde_obs.gauge obs ~help:"Progressive handles neither cancelled nor converged"
            "mde_session_open_handles";
        g_watchers =
          Mde_obs.gauge obs ~help:"Live watch subscriptions" "mde_session_watchers";
        c_ticks =
          Mde_obs.counter obs ~help:"Session planner rounds executed"
            "mde_session_ticks_total";
        c_fresh =
          Mde_obs.counter obs ~help:"Replications spent, by provenance"
            ~labels:[ ("kind", "fresh") ] "mde_session_reps_total";
        c_reused =
          Mde_obs.counter obs ~help:"Replications spent, by provenance"
            ~labels:[ ("kind", "reused") ] "mde_session_reps_total";
        h_halfwidth =
          Mde_obs.histogram obs ~help:"CI half width of emitted progressive updates"
            "mde_session_halfwidth";
      };
  }

let set_gauges t =
  let open_handles =
    List.fold_left
      (fun acc p -> if p.pr_open && p.pr_done < p.pr_total then acc + 1 else acc)
      0 t.queries
  in
  let watchers = List.fold_left (fun acc w -> if w.w_open then acc + 1 else acc) 0 t.watchers in
  Mde_obs.Gauge.set t.metrics.g_open (float_of_int open_handles);
  Mde_obs.Gauge.set t.metrics.g_watchers (float_of_int watchers)

let is_composite (request : Server.request) =
  match request.Server.kind with Server.Composite_estimate _ -> true | _ -> false

let entry_of t (p : progress) =
  match Hashtbl.find_opt t.entries p.pr_key with
  | Some e -> e
  | None ->
    let e =
      { e_request = p.pr_request; buf = [||]; len = 0; moments = Cache.variance_tracker () }
    in
    Hashtbl.replace t.entries p.pr_key e;
    e

let centry_of t key =
  match Hashtbl.find_opt t.centries key with
  | Some c -> c
  | None ->
    let c = { levels = [] } in
    Hashtbl.replace t.centries key c;
    c

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let open_query t request =
  (* Key computation validates the request against the target's models. *)
  let key = Target.refinement_key t.target request in
  let p =
    {
      pr_id = fresh_id t;
      pr_request = request;
      pr_key = key;
      pr_total = Server.units_of request.Server.kind;
      pr_floor = Server.floor_units request.Server.kind;
      pr_composite = is_composite request;
      pr_done = 0;
      pr_reused = 0;
      pr_last = None;
      pr_open = true;
    }
  in
  t.queries <- t.queries @ [ p ];
  set_gauges t;
  Query p

let watch t request cb =
  let key = Target.refinement_key t.target request in
  let w =
    {
      w_id = fresh_id t;
      w_request = request;
      w_key = key;
      w_total = Server.units_of request.Server.kind;
      w_floor = Server.floor_units request.Server.kind;
      w_composite = is_composite request;
      w_cb = cb;
      w_seen = 0;
      w_open = true;
    }
  in
  t.watchers <- t.watchers @ [ w ];
  set_gauges t;
  Watch w

let id = function Query p -> p.pr_id | Watch w -> w.w_id

let cancel t handle =
  (match handle with
  | Query p -> p.pr_open <- false
  | Watch w -> w.w_open <- false);
  set_gauges t

(* --- estimates --- *)

let half_width_of = function
  | Some (lo, hi) -> (hi -. lo) /. 2.
  | None -> nan

let make_update ~id ~value ~ci95 ~reps_done ~reps_total ~reps_reused =
  {
    id;
    value;
    ci95;
    half_width = half_width_of ci95;
    reps_done;
    reps_total;
    reps_reused;
    converged = reps_done >= reps_total;
  }

(* The update over the first [n] replications of [entry]'s stream: the
   one-shot estimator ([Server.estimate]) over the prefix, so a
   converged prefix yields the one-shot bits. *)
let sample_update ~id (request : Server.request) entry ~n ~reps_total ~reps_reused =
  let value, ci95 = Server.estimate request.Server.kind (Array.sub entry.buf 0 n) in
  make_update ~id ~value ~ci95 ~reps_done:n ~reps_total ~reps_reused

let progress_update t (p : progress) =
  if p.pr_done < p.pr_floor || p.pr_done < 1 then None
  else if p.pr_composite then
    match List.assoc_opt p.pr_done (centry_of t p.pr_key).levels with
    | None -> None
    | Some value ->
      Some
        (make_update ~id:p.pr_id ~value ~ci95:None ~reps_done:p.pr_done
           ~reps_total:p.pr_total ~reps_reused:p.pr_reused)
  else
    Some
      (sample_update ~id:p.pr_id p.pr_request (entry_of t p) ~n:p.pr_done
         ~reps_total:p.pr_total ~reps_reused:p.pr_reused)

let estimate t = function
  | Query p -> progress_update t p
  | Watch w ->
    if w.w_composite then
      (* The largest served level within the watcher's budget. *)
      List.fold_left
        (fun best (level, value) ->
          if level > w.w_total then best
          else
            match best with
            | Some (l, _) when l >= level -> best
            | _ -> Some (level, value))
        None
        (centry_of t w.w_key).levels
      |> Option.map (fun (level, value) ->
             make_update ~id:w.w_id ~value ~ci95:None ~reps_done:level
               ~reps_total:w.w_total ~reps_reused:0)
    else
      match Hashtbl.find_opt t.entries w.w_key with
      | None -> None
      | Some entry ->
        let n = Stdlib.min entry.len w.w_total in
        if n < w.w_floor || n < 1 then None
        else
          Some
            (sample_update ~id:w.w_id w.w_request entry ~n ~reps_total:w.w_total
               ~reps_reused:0)

(* --- the sample store --- *)

let append_samples entry xs =
  let n = Array.length xs in
  let needed = entry.len + n in
  if Array.length entry.buf < needed then begin
    let grown = Array.make (Stdlib.max needed (2 * Array.length entry.buf)) nan in
    Array.blit entry.buf 0 grown 0 entry.len;
    entry.buf <- grown
  end;
  Array.blit xs 0 entry.buf entry.len n;
  entry.len <- needed;
  Array.iter (Cache.track entry.moments) xs

(* Fire every watcher that gained new replications (or a new composite
   level) — exactly once per landed batch, never on reuse-only
   progress. *)
let fire_sample_watchers t key entry =
  List.iter
    (fun w ->
      if w.w_open && (not w.w_composite) && w.w_key = key then begin
        let n = Stdlib.min entry.len w.w_total in
        if n > w.w_seen && n >= w.w_floor then begin
          w.w_seen <- n;
          w.w_cb
            (sample_update ~id:w.w_id w.w_request entry ~n ~reps_total:w.w_total
               ~reps_reused:0)
        end
      end)
    t.watchers

let fire_composite_watchers t key ~level ~value =
  List.iter
    (fun w ->
      if w.w_open && w.w_composite && w.w_key = key && level <= w.w_total
         && level > w.w_seen
      then begin
        w.w_seen <- level;
        w.w_cb
          (make_update ~id:w.w_id ~value ~ci95:None ~reps_done:level ~reps_total:w.w_total
             ~reps_reused:0)
      end)
    t.watchers

(* --- planners --- *)

let remaining p = p.pr_total - p.pr_done

(* The allocation a batch for [p] would get out of [budget]: composite
   handles must reach at least their floor level in one step (an
   estimate below it is not servable). *)
let batch_for t p ~budget =
  let want = Stdlib.min t.config.min_batch (Stdlib.min (remaining p) budget) in
  if p.pr_composite && p.pr_done = 0 then
    let first = Stdlib.min (remaining p) (Stdlib.max want p.pr_floor) in
    if first <= budget then first else 0
  else want

let runnable t p ~budget = p.pr_open && remaining p > 0 && batch_for t p ~budget > 0

let cached_available t p =
  if p.pr_composite then
    (* Any cached level past the cursor (within the total) can be
       adopted wholesale. *)
    List.fold_left
      (fun acc (level, _) ->
        if level > p.pr_done && level <= p.pr_total then Stdlib.max acc (level - p.pr_done)
        else acc)
      0 (centry_of t p.pr_key).levels
  else
    match Hashtbl.find_opt t.entries p.pr_key with
    | None -> 0
    | Some entry -> Stdlib.max 0 (entry.len - p.pr_done)

(* The g(α) price of a candidate batch, in fresh-replication units: the
   budget is denominated in replications, so costs are rep-normalized
   (one fresh rep costs 1, an adopted cached rep costs ~0) and the
   batch's cached share plays the repeat fraction. [efficiency_gain]
   then says how far caching stretches this class's budget; dividing
   the fresh cost by it steers spend toward reuse-rich handles exactly
   when the theory says reuse pays. *)
let effective_cost t p ~want =
  let cached = Stdlib.min want (cached_available t p) in
  let fresh = want - cached in
  if fresh = 0 then 1e-3 (* pure adoption: essentially free *)
  else
    let gain =
      if cached = 0 then 1.
      else
        let result_variance =
          match Hashtbl.find_opt t.entries p.pr_key with
          | Some e -> Cache.sample_variance e.moments
          | None -> 0.
        in
        let stats =
          Cache.class_statistics ~compute_cost:1. ~serve_cost:0. ~result_variance
            ~repeat_fraction:(float_of_int cached /. float_of_int want)
        in
        if Cache.pays_off ~min_gain:t.config.min_gain stats then Rc.efficiency_gain stats
        else 1.
    in
    float_of_int fresh /. gain

(* Expected CI shrinkage of advancing [p] by [want] reps: half width
   scales ~ 1/√n, so the expected drop is hw·(1 − √(n/(n+want))).
   Handles below their floor score infinite (an estimate must exist
   before refinement means anything); composite handles — no CI — use a
   scale-free 1/√n proxy. *)
let expected_shrink (p : progress) ~want =
  if p.pr_done < p.pr_floor then infinity
  else
    let hw =
      match p.pr_last with
      | Some u when Float.is_finite u.half_width -> u.half_width
      | _ -> 1. /. sqrt (float_of_int (Stdlib.max 1 p.pr_done))
    in
    let n = float_of_int p.pr_done and b = float_of_int want in
    hw *. (1. -. sqrt (n /. (n +. b)))

let pick_explore t ~budget =
  List.fold_left
    (fun best p ->
      if not (runnable t p ~budget) then best
      else
        let want = batch_for t p ~budget in
        let score = expected_shrink p ~want /. effective_cost t p ~want in
        match best with
        | Some (_, best_score) when best_score >= score -> best
        | _ -> Some (p, score))
    None t.queries
  |> Option.map fst

(* Uniform rotation in handle-id order, resuming after the last
   allocation — each runnable handle gets one batch per cycle. *)
let pick_round_robin t ~budget =
  let candidates = List.filter (fun p -> runnable t p ~budget) t.queries in
  match candidates with
  | [] -> None
  | _ -> (
    match List.find_opt (fun p -> p.pr_id > t.rr_last) candidates with
    | Some p -> Some p
    | None -> Some (List.hd candidates))

let pick t ~budget =
  match t.planner with
  | Explore -> pick_explore t ~budget
  | Round_robin -> pick_round_robin t ~budget

(* --- execution --- *)

exception Target_dropped

(* Advance a composite handle to [level] by re-serving through the
   target (or adopting a cached level). Returns the served value. *)
let composite_level t (p : progress) ~level =
  let centry = centry_of t p.pr_key in
  match List.assoc_opt level centry.levels with
  | Some value -> value
  | None -> (
    let request =
      match p.pr_request.Server.kind with
      | Server.Composite_estimate { alpha; _ } ->
        { p.pr_request with Server.kind = Server.Composite_estimate { n = level; alpha } }
      | _ -> assert false
    in
    match Target.serve t.target request with
    | `Dropped -> raise Target_dropped
    | `Served resp ->
      centry.levels <- (level, resp.Server.value) :: centry.levels;
      fire_composite_watchers t p.pr_key ~level ~value:resp.Server.value;
      resp.Server.value)

(* Run one allocation for [p]: adopt cached replications past the
   cursor, draw the remainder fresh, advance, and account. Returns the
   reps actually spent (0 if the target dropped a composite re-serve). *)
let run_batch t (p : progress) ~want =
  if p.pr_composite then begin
    let level = p.pr_done + want in
    let cached = List.mem_assoc level (centry_of t p.pr_key).levels in
    match composite_level t p ~level with
    | exception Target_dropped -> 0
    | _ ->
      p.pr_done <- level;
      if cached then begin
        p.pr_reused <- p.pr_reused + want;
        t.reused <- t.reused + want;
        Mde_obs.Counter.add t.metrics.c_reused want
      end
      else begin
        t.fresh <- t.fresh + want;
        Mde_obs.Counter.add t.metrics.c_fresh want
      end;
      want
  end
  else begin
    let entry = entry_of t p in
    let reuse = Stdlib.min want (Stdlib.max 0 (entry.len - p.pr_done)) in
    let fresh = want - reuse in
    if fresh > 0 then begin
      let lo = entry.len in
      let xs = Target.refine t.target p.pr_request ~lo ~hi:(lo + fresh) in
      append_samples entry xs;
      fire_sample_watchers t p.pr_key entry
    end;
    p.pr_done <- p.pr_done + want;
    p.pr_reused <- p.pr_reused + reuse;
    t.fresh <- t.fresh + fresh;
    t.reused <- t.reused + reuse;
    Mde_obs.Counter.add t.metrics.c_fresh fresh;
    Mde_obs.Counter.add t.metrics.c_reused reuse;
    want
  end

let tick t =
  t.ticks <- t.ticks + 1;
  Mde_obs.Counter.incr t.metrics.c_ticks;
  let budget = ref t.config.tick_reps in
  let touched = Hashtbl.create 8 in
  let continue_ = ref true in
  while !budget > 0 && !continue_ do
    match pick t ~budget:!budget with
    | None -> continue_ := false
    | Some p -> (
      let want = batch_for t p ~budget:!budget in
      t.rr_last <- p.pr_id;
      match run_batch t p ~want with
      | 0 -> continue_ := false (* target dropped; no progress possible now *)
      | spent ->
        budget := !budget - spent;
        Hashtbl.replace touched p.pr_id p)
  done;
  let updates =
    Hashtbl.fold (fun _ p acc -> p :: acc) touched []
    |> List.sort (fun a b -> compare a.pr_id b.pr_id)
    |> List.filter_map (fun p ->
           let u = progress_update t p in
           p.pr_last <- u;
           u)
  in
  List.iter
    (fun u ->
      if Float.is_finite u.half_width then
        Mde_obs.Histogram.observe t.metrics.h_halfwidth u.half_width)
    updates;
  set_gauges t;
  updates

let drive ?(max_ticks = 10_000) t =
  let all_converged () =
    List.for_all (fun p -> (not p.pr_open) || remaining p = 0) t.queries
  in
  let rec go k =
    if all_converged () then
      List.filter_map
        (fun p -> if p.pr_open then progress_update t p else None)
        t.queries
    else if k >= max_ticks then
      failwith (Printf.sprintf "Session.drive: not converged after %d ticks" k)
    else begin
      let spent_before = t.fresh + t.reused in
      ignore (tick t);
      if t.fresh + t.reused = spent_before && not (all_converged ()) then
        failwith "Session.drive: no progress (dropped re-serves or watch-only session)";
      go (k + 1)
    end
  in
  go 0

let retarget t target = t.target <- target

type stats = {
  handles_open : int;
  watchers : int;
  ticks : int;
  fresh_reps : int;
  reused_reps : int;
}

let stats t =
  {
    handles_open =
      List.fold_left
        (fun acc p -> if p.pr_open && remaining p > 0 then acc + 1 else acc)
        0 t.queries;
    watchers =
      List.fold_left (fun acc w -> if w.w_open then acc + 1 else acc) 0 t.watchers;
    ticks = t.ticks;
    fresh_reps = t.fresh;
    reused_reps = t.reused;
  }
