open Mde_relational
module Rng = Mde_prob.Rng

type t = {
  deterministic : (string, Table.t) Hashtbl.t;
  stochastic : (string, Stochastic_table.t) Hashtbl.t;
}

let create () = { deterministic = Hashtbl.create 8; stochastic = Hashtbl.create 8 }

let add_table t name table =
  if Hashtbl.mem t.stochastic name then
    invalid_arg (Printf.sprintf "Database.add_table: %S is a stochastic table" name);
  Hashtbl.replace t.deterministic name table

let add_stochastic t st =
  let name = Stochastic_table.name st in
  if Hashtbl.mem t.deterministic name then
    invalid_arg
      (Printf.sprintf "Database.add_stochastic: %S is a deterministic table" name);
  Hashtbl.replace t.stochastic name st

let sorted_keys table =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])

let deterministic_tables t = sorted_keys t.deterministic
let stochastic_tables t = sorted_keys t.stochastic

let fingerprint t =
  let det =
    List.map
      (fun name ->
        let table = Hashtbl.find t.deterministic name in
        Format.asprintf "%s:%a:%d" name Schema.pp (Table.schema table)
          (Table.cardinality table))
      (deterministic_tables t)
  in
  let sto =
    List.map
      (fun name -> Stochastic_table.fingerprint (Hashtbl.find t.stochastic name))
      (stochastic_tables t)
  in
  Printf.sprintf "mcdb{det=[%s];sto=[%s]}" (String.concat ";" det)
    (String.concat ";" sto)

let instantiate t rng =
  let catalog = Catalog.create () in
  Hashtbl.iter (fun name table -> Catalog.register catalog name table) t.deterministic;
  (* Realize stochastic tables in name order so the RNG consumption is
     deterministic given the seed. *)
  List.iter
    (fun name ->
      let st = Hashtbl.find t.stochastic name in
      Catalog.register catalog name (Stochastic_table.instantiate st rng))
    (stochastic_tables t);
  catalog

(* Replication counts and sampling wall time go to whatever registry is
   installed at call time (registration is idempotent, so the repeated
   [counter]/[histogram] calls are hashtable lookups). With the no-op
   default the whole block is skipped — no clock reads, no registration
   — so samples stay bit-identical to uninstrumented runs. *)
let monte_carlo ?pool t rng ~reps ~query =
  if reps < 1 then invalid_arg "Database.monte_carlo: reps must be >= 1";
  (* Streams are split up front, so repetition [r] consumes stream [r]
     whether it runs here or on a pool domain: parallel and sequential
     runs are bit-identical. *)
  let run () =
    let streams = Rng.split_n rng reps in
    Mde_par.Pool.init ?pool ~site:"mcdb.monte_carlo" reps (fun r ->
        query (instantiate t streams.(r)))
  in
  let obs = Mde_obs.default () in
  if not (Mde_obs.enabled obs) then run ()
  else
    Mde_obs.with_span obs ~name:"mcdb.estimate" (fun () ->
        let t0 = Mde_obs.Clock.wall () in
        let samples = run () in
        Mde_obs.Counter.add
          (Mde_obs.counter obs ~help:"Monte Carlo replications executed by Database.monte_carlo"
             "mde_mcdb_replications_total")
          reps;
        Mde_obs.Histogram.observe
          (Mde_obs.histogram obs ~help:"Wall seconds per Database.monte_carlo call"
             "mde_mcdb_estimate_seconds")
          (Mde_obs.Clock.wall () -. t0);
        samples)

let plan_samples ?pool t rng ~table ~reps plan =
  if reps < 1 then invalid_arg "Database.plan_samples: reps must be >= 1";
  if plan.Bundle.group_keys <> [] then
    invalid_arg "Database.plan_samples: plan must aggregate into a single global group";
  if plan.Bundle.aggs = [] then
    invalid_arg "Database.plan_samples: plan has no aggregates";
  let st =
    match Hashtbl.find_opt t.stochastic table with
    | Some st -> st
    | None ->
      invalid_arg
        (Printf.sprintf "Database.plan_samples: unknown stochastic table %S" table)
  in
  let run () =
    let bundle = Bundle.of_stochastic_table ?pool st rng ~n_reps:reps in
    match Bundle.query ?pool bundle plan with
    | [ (_, aggs) ] -> aggs.(0)
    | results ->
      invalid_arg
        (Printf.sprintf "Database.plan_samples: expected one group, got %d"
           (List.length results))
  in
  let obs = Mde_obs.default () in
  if not (Mde_obs.enabled obs) then run ()
  else Mde_obs.with_span obs ~name:"mcdb.plan_samples" run

let estimate ?pool t rng ~reps ~query =
  Estimator.of_samples (monte_carlo ?pool t rng ~reps ~query)
