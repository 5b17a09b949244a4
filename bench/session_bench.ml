(* The --session experiment: progressive-refinement query sessions over
   the serving demo models, recorded in bench/BENCH_session.json.

   Three phases:

   - warm-up / calibration: a throwaway round-robin session brings every
     gate handle to one [min_batch] of replications — the state both
     planners pass through identically — and the target CI half width tau
     is set to the mean half width there divided by 2.5;
   - planner race: the gate workload (four cheap low-variance random-walk
     queries next to one hot high-variance one) runs once under the
     GenIE-style [Session.Explore] planner and once under
     [Session.Round_robin], each on a fresh server, ticking until the mean
     half width over the handles reaches tau. The replications each
     planner spent to get there, and the per-tick (spent, half-width)
     refinement curves, are recorded;
   - bit-identity: a session with one handle per query kind (plus a
     same-key pair exercising cached-pilot reuse) is driven to
     convergence and every final estimate is compared bit for bit with a
     one-shot serve of the same request on a fresh server.

   The run fails unless the sessions are bit-identical to the one-shot
   serves, cached-pilot reuse engaged, and the explorer needs >= 1.2x
   fewer replications than round-robin to reach tau. *)

module Serve = Mde.Serve
module Session = Serve.Session
module Server = Serve.Server
module Emit = Mde_bench_emit

let rows = 60
let seed = 11

type curve_point = { tick : int; spent : int; mean_hw : float }

type planner_run = {
  planner : string;
  reps_to_target : int option;  (* spend when mean half width first <= tau *)
  total_reps : int;
  curve : curve_point list;  (* tick order *)
}

(* The exploration workload: four cheap low-variance walks next to one
   hot high-variance walk (variance of a [steps]-step U(-0.5,0.5) walk
   is steps/12). A uniform planner waters the cheap handles long after
   their CIs stopped mattering; the explorer shifts budget to the hot
   one — the sigma^(2/3) allocation, worth ~1.6x here in reps-to-target. *)
let gate_requests =
  List.init 4 (fun i ->
      {
        Server.model = "walk";
        kind = Server.Chain_mean { steps = 4; reps = 64 };
        seed = seed + i;
        deadline = None;
      })
  @ [
      {
        Server.model = "walk";
        kind = Server.Chain_mean { steps = 512; reps = 2048 };
        seed = seed + 100;
        deadline = None;
      };
    ]

let config ~tick_reps = { Session.default_config with Session.tick_reps }

(* Mean CI half width across the gate handles, once every one has an
   estimate. *)
let mean_hw session handles =
  let hws =
    List.filter_map
      (fun h ->
        Session.estimate session h |> Option.map (fun u -> u.Session.half_width))
      handles
  in
  if List.length hws < List.length handles then None
  else Some (List.fold_left ( +. ) 0. hws /. float_of_int (List.length hws))

(* Both planners start from the identical warm-up state (one min_batch
   per handle — exactly what one round-robin cycle allocates), so the
   target tau is derived once, from that state, and is the same constant
   for both runs. *)
let derive_tau target =
  let session =
    Session.create ~planner:Session.Round_robin
      ~config:(config ~tick_reps:(5 * Session.default_config.Session.min_batch))
      target
  in
  let handles = List.map (Session.open_query session) gate_requests in
  ignore (Session.tick session);
  match mean_hw session handles with
  | Some hw -> hw /. 2.5
  | None -> invalid_arg "session bench: warm-up produced no estimates"

let measure target ~planner ~name ~tau ~tick_reps =
  let session = Session.create ~planner ~config:(config ~tick_reps) target in
  let handles = List.map (Session.open_query session) gate_requests in
  let curve = ref [] and reached = ref None in
  let spent = ref 0 and tick_no = ref 0 and running = ref true in
  while !running do
    incr tick_no;
    ignore (Session.tick session);
    let st = Session.stats session in
    spent := st.Session.fresh_reps + st.Session.reused_reps;
    (match mean_hw session handles with
    | Some hw ->
      curve := { tick = !tick_no; spent = !spent; mean_hw = hw } :: !curve;
      if hw <= tau && !reached = None then reached := Some !spent
    | None -> ());
    let converged =
      List.for_all
        (fun h ->
          match Session.estimate session h with
          | Some u -> u.Session.converged
          | None -> false)
        handles
    in
    if !reached <> None || converged || !tick_no >= 1000 then running := false
  done;
  { planner = name; reps_to_target = !reached; total_reps = !spent; curve = List.rev !curve }

let bits = Int64.bits_of_float

(* Bit-identity pass: one handle per query kind (plus a key-mate pair
   exercising cached-pilot reuse), driven to convergence, then each
   request re-served one-shot on a fresh identically-registered server
   — the converged session must hold exactly the one-shot bits. *)
let identity () =
  let target = Serve.Target.of_server (Serve.Demo.server ~rows ()) in
  let requests =
    [
      { Server.model = "sbp"; kind = Server.Mcdb_mean { reps = 32 }; seed; deadline = None };
      (* same refinement key as above: adopts its cached replications *)
      { Server.model = "sbp"; kind = Server.Mcdb_mean { reps = 16 }; seed; deadline = None };
      {
        Server.model = "sbp_bundle";
        kind = Server.Mcdb_tail { reps = 64; p = 0.9 };
        seed = seed + 1;
        deadline = None;
      };
      {
        Server.model = "walk";
        kind = Server.Chain_mean { steps = 8; reps = 24 };
        seed = seed + 2;
        deadline = None;
      };
      {
        Server.model = "queue";
        kind = Server.Composite_estimate { n = 64; alpha = 0.25 };
        seed = seed + 3;
        deadline = None;
      };
    ]
  in
  let session = Session.create ~config:(config ~tick_reps:32) target in
  let handles = List.map (Session.open_query session) requests in
  let finals = Session.drive session in
  let final_of h = List.find_opt (fun u -> u.Session.id = Session.id h) finals in
  let oneshot = Serve.Demo.server ~rows () in
  let compared = ref 0 and mismatches = ref 0 in
  List.iter2
    (fun request h ->
      match (Server.serve oneshot request, final_of h) with
      | `Served resp, Some u ->
        incr compared;
        let same_value = bits u.Session.value = bits resp.Server.value in
        let same_ci = u.Session.ci95 = resp.Server.ci95 in
        if not (same_value && same_ci) then incr mismatches
      | _ -> incr mismatches)
    requests handles;
  (!compared, !mismatches, (Session.stats session).Session.reused_reps)

let curve_json p =
  "["
  ^ String.concat ", "
      (List.map
         (fun c ->
           Printf.sprintf "{\"tick\": %d, \"spent_reps\": %d, \"mean_halfwidth\": %s}" c.tick
             c.spent (Emit.json_float c.mean_hw))
         p.curve)
  ^ "]"

let run ?(tick_reps = 64) () =
  Util.section "SESSION"
    (Printf.sprintf
       "progressive-refinement sessions: explorer vs round-robin, %d reps per tick"
       tick_reps);
  let fresh_target () = Serve.Target.of_server (Serve.Demo.server ~rows ()) in
  let tau = derive_tau (fresh_target ()) in
  let explore =
    measure (fresh_target ()) ~planner:Session.Explore ~name:"explore" ~tau ~tick_reps
  in
  let round_robin =
    measure (fresh_target ()) ~planner:Session.Round_robin ~name:"round-robin" ~tau
      ~tick_reps
  in
  let compared, mismatches, reused_reps = identity () in
  let identical = compared > 0 && mismatches = 0 in
  let advantage =
    match (explore.reps_to_target, round_robin.reps_to_target) with
    | Some e, Some u when e > 0 -> Some (float_of_int u /. float_of_int e)
    | _ -> None
  in
  Printf.printf "  4 cold + 1 hot progressive chain queries, %d rows\n" rows;
  Printf.printf "  target mean CI half width: %.4f (warm-up mean / 2.5)\n\n" tau;
  let line p =
    Printf.printf "  %-12s %6s reps to target  (%d ticks, %d reps total)\n" p.planner
      (match p.reps_to_target with Some n -> string_of_int n | None -> "-")
      (List.length p.curve) p.total_reps
  in
  line explore;
  line round_robin;
  (match advantage with
  | Some ratio -> Printf.printf "\n  explorer advantage: %.2fx fewer reps\n" ratio
  | None -> Printf.printf "\n  explorer advantage: unavailable\n");
  if identical then
    Printf.printf
      "  converged sessions vs one-shot serves: bit-identical over %d requests (%d reps \
       adopted from cache)\n"
      compared reused_reps
  else
    Printf.printf "  converged sessions vs one-shot serves: %d MISMATCHES over %d\n"
      mismatches compared;
  let path =
    Emit.append ~file:"BENCH_session.json" ~name:"session-explore"
      [
        ("rows", Emit.Int rows);
        ("seed", Int seed);
        ("tick_reps", Int tick_reps);
        ("tau_halfwidth", Float tau);
        ( "explore_reps_to_target",
          match explore.reps_to_target with Some n -> Int n | None -> Json "null" );
        ( "round_robin_reps_to_target",
          match round_robin.reps_to_target with Some n -> Int n | None -> Json "null" );
        ("explorer_advantage", match advantage with Some x -> Float x | None -> Json "null");
        ("compared", Int compared);
        ("identical_output", Bool identical);
        ("reused_reps", Int reused_reps);
        ("explore_curve", Json (curve_json explore));
        ("round_robin_curve", Json (curve_json round_robin));
      ]
  in
  Util.note "recorded in %s" path;
  let fail msg =
    Util.note "FAIL: %s" msg;
    exit 1
  in
  if not identical then
    fail
      (Printf.sprintf "converged sessions vs one-shot serves: %d mismatches over %d"
         mismatches compared);
  if reused_reps = 0 then
    fail "key-mate handle adopted no cached replications: reuse never engaged";
  match advantage with
  | None -> fail "a planner never reached the target half width"
  | Some ratio when ratio < 1.2 ->
    fail
      (Printf.sprintf
         "explorer advantage %.2fx below the 1.2x gate (explore %d vs round-robin %d reps)"
         ratio
         (Option.value ~default:0 explore.reps_to_target)
         (Option.value ~default:0 round_robin.reps_to_target))
  | Some _ -> ()
