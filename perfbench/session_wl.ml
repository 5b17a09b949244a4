(* session-explore: one caller runs progressive sessions back to back.
   Each session opens a handful of handles under the [Explore] planner
   and drives them to convergence; an op is one session, from
   [Session.create] until every handle has converged. *)

open Measure
module Serve = Mde_serve
module Server = Serve.Server
module Session = Serve.Session
module Target = Serve.Target

(* A bundle MCDB mean, a naive MCDB tail, three low-variance chains, one
   high-variance chain, and a key-mate pair (same model, kind and seed,
   different rep budgets) that shares one sample store. *)
let requests ~seed i =
  let base = (seed * 1_000_000) + (i * 16) in
  let req model kind k = { Server.model; kind; seed = base + k; deadline = None } in
  [
    req "sbp_bundle" (Server.Mcdb_mean { reps = 256 }) 0;
    req "sbp" (Server.Mcdb_tail { reps = 40; p = 0.9 }) 1;
    req "walk" (Server.Chain_mean { steps = 4; reps = 64 }) 2;
    req "walk" (Server.Chain_mean { steps = 4; reps = 64 }) 3;
    req "walk" (Server.Chain_mean { steps = 4; reps = 64 }) 4;
    req "walk" (Server.Chain_mean { steps = 96; reps = 384 }) 5;
    req "sbp" (Server.Mcdb_mean { reps = 32 }) 6;
    req "sbp" (Server.Mcdb_mean { reps = 16 }) 6;
  ]

let handles = List.length (requests ~seed:0 0)
let config = { Session.default_config with Session.tick_reps = 64 }

(* A request's one-shot answer, served once for the whole run: every
   set-up builds the one-shot front from the same definitions, so the
   answer does not depend on the instance asking. *)
let oneshot_answer =
  let memo = Hashtbl.create 1024 in
  fun target (r : Server.request) ->
    match Hashtbl.find_opt memo r with
    | Some a -> a
    | None ->
      let a =
        match Target.serve target r with
        | `Served resp when not resp.Server.degraded -> Some (resp.Server.value, resp.Server.ci95)
        | _ -> None
      in
      Hashtbl.add memo r a;
      a

let setup ~tracer ~seed =
  let models = Serve_wl.models ~tracer ~rows:120 in
  let target = Target.of_shard (Serve_wl.front ~models ~shards:2 ~cache_capacity:64) in
  (* drive one session; returns the final update of every handle *)
  let run ~traced reqs =
    let session = Session.create ~planner:Session.Explore ~config target in
    let handles = List.map (Session.open_query session) reqs in
    let finals =
      if not traced then Session.drive session
      else begin
        (* [Session.drive]'s loop, ticked here so each tick gets a span *)
        let converged () =
          List.for_all
            (fun h ->
              match Session.estimate session h with Some u -> u.Session.converged | None -> false)
            handles
        in
        while not (converged ()) do
          ignore (Trace.span tracer "session.tick" (fun () -> Session.tick session))
        done;
        List.filter_map (Session.estimate session) handles
      end
    in
    (session, finals)
  in
  for i = 1 to 24 do
    ignore (run ~traced:false (requests ~seed (-i)))
  done;
  let sessions = ref 0 and bad = ref 0 in
  (* value, CI low, CI high of every converged handle, in session order,
     checked after the window *)
  let values = Lat.create () and lows = Lat.create () and highs = Lat.create () in
  let ticks = ref 0 and fresh = ref 0 and reused = ref 0 in
  let tick_model_ns = ref 0 in
  (* A converged handle must equal a one-shot serve of its request on a
     separate, identically built front. *)
  let plain_models = Serve_wl.models ~tracer:None ~rows:120 in
  let oneshot =
    Target.of_shard (Serve_wl.front ~models:plain_models ~shards:2 ~cache_capacity:64)
  in
  (* The traced run also times each request's direct library call as an
     exec.* span, next to the served one-shot answer it must equal. *)
  let check r value ci =
    if Trace.active tracer then
      Trace.span tracer (Serve_wl.exec_name r) (fun () ->
          if not (Serve_wl.matches plain_models r value ci) then incr bad);
    match oneshot_answer oneshot r with
    | Some (v, c) when same_float v value && same_ci c ci -> ()
    | _ -> incr bad
  in
  let step tally =
    let i = !sessions in
    incr sessions;
    let reqs = requests ~seed i in
    let traced = Trace.active tracer in
    Option.iter (fun tr -> Trace.set_op tr i) tracer;
    let m0 = Option.fold ~none:0 ~some:Trace.fine_total tracer in
    let q0 = Option.fold ~none:0 ~some:(fun tr -> Trace.total tr "model.query") tracer in
    let t0 = now_ns () in
    let session, finals = Trace.span tracer "session" (fun () -> run ~traced reqs) in
    Lat.add tally.lat (float_of_int (now_ns () - t0));
    tally.attempted <- tally.attempted + 1;
    (* a session that did not converge every handle failed *)
    let ok = List.length finals = handles in
    if not ok then tally.failed <- tally.failed + 1;
    if traced then begin
      let tr = Option.get tracer in
      tick_model_ns :=
        !tick_model_ns + (Trace.fine_total tr - m0) + (Trace.total tr "model.query" - q0);
      let st = Session.stats session in
      ticks := !ticks + st.Session.ticks;
      fresh := !fresh + st.Session.fresh_reps;
      reused := !reused + st.Session.reused_reps;
      if ok then
        Trace.span tracer "check" (fun () ->
            List.iter2
              (fun r (u : Session.update) -> check r u.Session.value u.Session.ci95)
              reqs finals)
    end
    else
      (* a failed session keeps its slots, as NaN values the check skips *)
      for k = 0 to handles - 1 do
        let value, (lo, hi) =
          match if ok then List.nth_opt finals k else None with
          | Some u -> (u.Session.value, Option.value u.Session.ci95 ~default:(nan, nan))
          | None -> (nan, (nan, nan))
        in
        Lat.add values value;
        Lat.add lows lo;
        Lat.add highs hi
      done;
    1
  in
  let verify () =
    for i = 0 to (values.Lat.n / handles) - 1 do
      List.iteri
        (fun k r ->
          let get (b : Lat.t) = Bigarray.Array1.get b.Lat.a ((i * handles) + k) in
          if not (Float.is_nan (get values)) then
            check r (get values)
              (if Float.is_nan (get lows) then None else Some (get lows, get highs)))
        (requests ~seed i)
    done;
    !bad
  in
  let layers () =
    let tr = Option.get tracer in
    let n = float_of_int !sessions in
    let tick_ns = float_of_int (Trace.total tr "session.tick") in
    let per_tick x = ms x /. float_of_int !ticks in
    [
      ("session.tick_ms", per_tick tick_ns);
      ("session.ticks", float_of_int !ticks /. n);
      ("session.self_ms", per_tick (tick_ns -. float_of_int !tick_model_ns));
      ("session.fresh_reps", float_of_int !fresh /. n);
      ("session.reused_reps", float_of_int !reused /. n);
      ("session.reuse_share", float_of_int !reused /. float_of_int (!fresh + !reused));
      ("model.query_ms", ms (float_of_int (Trace.total tr "model.query")) /. n);
      ("model.vg_ms", ms (float_of_int (Trace.total tr "model.vg")) /. n);
      ("exec.mcdb_mean_ms", ms (Trace.mean_ns tr "exec.mcdb_mean"));
      ("exec.mcdb_tail_ms", ms (Trace.mean_ns tr "exec.mcdb_tail"));
      ("exec.chain_ms", ms (Trace.mean_ns tr "exec.chain"));
    ]
  in
  { step; verify; layers }
