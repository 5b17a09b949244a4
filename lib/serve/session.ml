module Rc = Mde_composite.Result_cache

type planner = Explore | Round_robin

type config = { tick_reps : int; min_batch : int }

let default_config = { tick_reps = 64; min_batch = 8 }

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

(* One store per refinement key, shared by every handle and watcher
   whose request identifies the same replication stream. A sampled
   stream keeps its landed prefix (the first [len] cells of [buf]) and
   the running variance that feeds the g(α) pricing. Composite
   estimates are not sliceable: their store keeps the levels served so
   far (level n -> theta_hat), re-served at increasing [n] under
   [alpha], so key-mates adopt a level instead of re-serving it. *)
type store =
  | Samples of {
      mutable buf : float array;
      mutable len : int;
      moments : Cache.variance_tracker;
    }
  | Levels of { alpha : float; mutable levels : (int * float) list }

(* A progressive handle ([watch = None]) or a watcher. The cursor is the
   reps a handle spent, or the level a watcher last fired at. *)
type handle = {
  id : int;
  request : Server.request;
  store : store;
  total : int;
  floor : int;
  watch : (update -> unit) option;
  mutable cursor : int;
  mutable reused : int;
  mutable last : update option;
  mutable live : bool;
}

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
  stores : (string, store) Hashtbl.t;
  mutable handles : handle list;  (* handles and watchers, in open order *)
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
    stores = Hashtbl.create 16;
    handles = [];
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

let progressive h = Option.is_none h.watch

(* Live progressive handles with demand left, and live watchers. *)
let count t =
  List.fold_left
    (fun (handles, watchers) h ->
      if not h.live then (handles, watchers)
      else if not (progressive h) then (handles, watchers + 1)
      else if h.cursor < h.total then (handles + 1, watchers)
      else (handles, watchers))
    (0, 0) t.handles

let set_gauges t =
  let handles, watchers = count t in
  Mde_obs.Gauge.set t.metrics.g_open (float_of_int handles);
  Mde_obs.Gauge.set t.metrics.g_watchers (float_of_int watchers)

let add t (request : Server.request) watch =
  (* Key computation validates the request against the target's models. *)
  let key = Target.refinement_key t.target request in
  let store =
    match Hashtbl.find_opt t.stores key with
    | Some s -> s
    | None ->
      let s =
        match request.Server.kind with
        | Server.Composite_estimate { alpha; _ } -> Levels { alpha; levels = [] }
        | _ -> Samples { buf = [||]; len = 0; moments = Cache.variance_tracker () }
      in
      Hashtbl.replace t.stores key s;
      s
  in
  let h =
    {
      id = t.next_id;
      request;
      store;
      total = Server.units_of request.Server.kind;
      floor = Server.floor_units request.Server.kind;
      watch;
      cursor = 0;
      reused = 0;
      last = None;
      live = true;
    }
  in
  t.next_id <- t.next_id + 1;
  t.handles <- t.handles @ [ h ];
  set_gauges t;
  h

let open_query t request = add t request None
let watch t request cb = add t request (Some cb)
let id h = h.id

let cancel t h =
  h.live <- false;
  set_gauges t

(* --- estimates --- *)

(* The largest level [h]'s store can estimate it at, capped at its
   total: the landed prefix, or the largest served level. *)
let frontier h =
  match h.store with
  | Samples s -> Stdlib.min s.len h.total
  | Levels l ->
    List.fold_left
      (fun acc (level, _) -> if level <= h.total then Stdlib.max acc level else acc)
      0 l.levels

(* [h]'s update at level [n]: the one-shot estimator ([Server.estimate])
   over the first [n] replications of its stream — so a converged
   prefix yields the one-shot bits — or the level served at [n]. *)
let update_at h n =
  if n < h.floor || n < 1 then None
  else
    let at (value, ci95) =
      {
        id = h.id;
        value;
        ci95;
        half_width = (match ci95 with Some (lo, hi) -> (hi -. lo) /. 2. | None -> nan);
        reps_done = n;
        reps_total = h.total;
        reps_reused = h.reused;
        converged = n >= h.total;
      }
    in
    match h.store with
    | Samples s -> Some (at (Server.estimate h.request.Server.kind (Array.sub s.buf 0 n)))
    | Levels l -> Option.map (fun v -> at (v, None)) (List.assoc_opt n l.levels)

let estimate (_ : t) h = update_at h (if progressive h then h.cursor else frontier h)

(* Fire every live watcher on [store] whose frontier moved past its
   last firing: once per landed batch or newly served level. Adoption
   grows no store, so it fires nothing. *)
let fire t store =
  List.iter
    (fun w ->
      match w.watch with
      | Some cb when w.live && w.store == store ->
        let n = frontier w in
        if n > w.cursor then
          Option.iter
            (fun u ->
              w.cursor <- n;
              cb u)
            (update_at w n)
      | _ -> ())
    t.handles

(* --- planners --- *)

(* The allocation a batch for [h] would get out of [budget]: composite
   handles must reach at least their floor level in one step (an
   estimate below it is not servable). *)
let batch_for t h ~budget =
  let remaining = h.total - h.cursor in
  let want = Stdlib.min t.config.min_batch (Stdlib.min remaining budget) in
  match h.store with
  | Levels _ when h.cursor = 0 ->
    let first = Stdlib.min remaining (Stdlib.max want h.floor) in
    if first <= budget then first else 0
  | _ -> want

(* The reps of a [want]-rep batch for [h] that its store already holds,
   adopted for free: the landed samples past the cursor, or the whole
   batch when the level it reaches was served. The one reuse rule, for
   pricing and execution alike. *)
let adoptable h ~want =
  match h.store with
  | Samples s -> Stdlib.min want (Stdlib.max 0 (s.len - h.cursor))
  | Levels l -> if List.mem_assoc (h.cursor + want) l.levels then want else 0

(* The g(α) price of a candidate batch, in fresh-replication units: the
   budget is denominated in replications, so costs are rep-normalized
   (one fresh rep costs 1, an adopted rep ~0) and the batch's adopted
   share plays the repeat fraction. [efficiency_gain] then says how far
   caching stretches this class's budget; dividing the fresh cost by it
   steers spend toward reuse-rich handles exactly when the theory says
   reuse pays. *)
let effective_cost h ~want =
  let cached = adoptable h ~want in
  let fresh = want - cached in
  if fresh = 0 then 1e-3 (* pure adoption: essentially free *)
  else
    match h.store with
    | Samples s when cached > 0 ->
      let stats =
        Cache.class_statistics ~compute_cost:1. ~serve_cost:0.
          ~result_variance:(Cache.sample_variance s.moments)
          ~repeat_fraction:(float_of_int cached /. float_of_int want)
      in
      let gain = if Cache.pays_off stats then Rc.efficiency_gain stats else 1. in
      float_of_int fresh /. gain
    | _ -> float_of_int fresh

(* Expected CI shrinkage of advancing [h] by [want] reps: half width
   scales ~ 1/√n, so the expected drop is hw·(1 − √(n/(n+want))).
   Handles below their floor score infinite (an estimate must exist
   before refinement means anything); composite handles — no CI — use a
   scale-free 1/√n proxy. *)
let expected_shrink h ~want =
  if h.cursor < h.floor then infinity
  else
    let hw =
      match h.last with
      | Some u when Float.is_finite u.half_width -> u.half_width
      | _ -> 1. /. sqrt (float_of_int (Stdlib.max 1 h.cursor))
    in
    let n = float_of_int h.cursor and b = float_of_int want in
    hw *. (1. -. sqrt (n /. (n +. b)))

(* The next (handle, batch) to run. [Explore] takes the argmax of
   expected shrinkage per effective fresh rep (the earliest handle on a
   tie); [Round_robin] rotates in handle-id order, resuming after the
   last allocation, so each runnable handle gets one batch per cycle. *)
let pick t ~budget =
  let candidates =
    List.filter_map
      (fun h ->
        if not (h.live && progressive h && h.cursor < h.total) then None
        else match batch_for t h ~budget with 0 -> None | want -> Some (h, want))
      t.handles
  in
  match t.planner with
  | Round_robin -> (
    match List.find_opt (fun (h, _) -> h.id > t.rr_last) candidates with
    | Some c -> Some c
    | None -> List.nth_opt candidates 0)
  | Explore ->
    List.fold_left
      (fun best (h, want) ->
        let score = expected_shrink h ~want /. effective_cost h ~want in
        match best with
        | Some (_, best_score) when best_score >= score -> best
        | _ -> Some ((h, want), score))
      None candidates
    |> Option.map fst

(* --- execution --- *)

(* Run one allocation for [h]: adopt what its store holds, land the rest
   (draw it through the target, or re-serve the composite at its new
   level), fire the watchers, advance and account. Returns the reps
   spent: 0 if the target dropped a composite re-serve. *)
let run_batch t h ~want =
  let reuse = adoptable h ~want in
  let fresh = want - reuse in
  let landed =
    fresh = 0
    ||
    match h.store with
    | Samples s ->
      let xs = Target.refine t.target h.request ~lo:s.len ~hi:(s.len + fresh) in
      let len = s.len + fresh in
      if Array.length s.buf < len then begin
        let grown = Array.make (Stdlib.max len (2 * Array.length s.buf)) nan in
        Array.blit s.buf 0 grown 0 s.len;
        s.buf <- grown
      end;
      Array.blit xs 0 s.buf s.len fresh;
      s.len <- len;
      Array.iter (Cache.track s.moments) xs;
      true
    | Levels l -> (
      let n = h.cursor + want in
      let kind = Server.Composite_estimate { n; alpha = l.alpha } in
      match Target.serve t.target { h.request with Server.kind } with
      | `Dropped -> false
      | `Served resp ->
        l.levels <- (n, resp.Server.value) :: l.levels;
        true)
  in
  if not landed then 0
  else begin
    if fresh > 0 then fire t h.store;
    h.cursor <- h.cursor + want;
    h.reused <- h.reused + reuse;
    t.fresh <- t.fresh + fresh;
    t.reused <- t.reused + reuse;
    Mde_obs.Counter.add t.metrics.c_fresh fresh;
    Mde_obs.Counter.add t.metrics.c_reused reuse;
    want
  end

let tick t =
  t.ticks <- t.ticks + 1;
  Mde_obs.Counter.incr t.metrics.c_ticks;
  let rec spend budget touched =
    match if budget > 0 then pick t ~budget else None with
    | None -> touched
    | Some (h, want) -> (
      t.rr_last <- h.id;
      match run_batch t h ~want with
      | 0 -> touched (* target dropped; no progress possible now *)
      | spent -> spend (budget - spent) (if List.memq h touched then touched else h :: touched))
  in
  let updates =
    spend t.config.tick_reps []
    |> List.sort (fun a b -> compare a.id b.id)
    |> List.filter_map (fun h ->
           let u = update_at h h.cursor in
           h.last <- u;
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
  let rec go k =
    let open_handles = List.filter (fun h -> h.live && progressive h) t.handles in
    if List.for_all (fun h -> h.cursor = h.total) open_handles then
      List.filter_map (fun h -> update_at h h.cursor) open_handles
    else if k >= max_ticks then
      failwith (Printf.sprintf "Session.drive: not converged after %d ticks" k)
    else begin
      let spent_before = t.fresh + t.reused in
      ignore (tick t);
      if t.fresh + t.reused = spent_before && fst (count t) > 0 then
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
  let handles_open, watchers = count t in
  { handles_open; watchers; ticks = t.ticks; fresh_reps = t.fresh; reused_reps = t.reused }
