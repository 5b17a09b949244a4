open Mde_relational
module Rng = Mde_prob.Rng
module Chain = Mde_simsql.Chain

let sbp_database rows =
  let patients =
    Table.create
      (Schema.of_list [ ("pid", Value.Tint); ("gender", Value.Tstring) ])
      (List.init rows (fun i ->
           [| Value.Int i; Value.String (if i mod 2 = 0 then "F" else "M") |]))
  in
  let param =
    Table.create
      (Schema.of_list [ ("mean", Value.Tfloat); ("std", Value.Tfloat) ])
      [ [| Value.Float 120.; Value.Float 15. |] ]
  in
  let st =
    Mde_mcdb.Stochastic_table.define ~name:"SBP_DATA"
      ~schema:
        (Schema.of_list
           [ ("pid", Value.Tint); ("gender", Value.Tstring); ("sbp", Value.Tfloat) ])
      ~driver:patients ~vg:Mde_mcdb.Vg.normal
      ~params:(fun _ -> [ param ])
      ~combine:(fun d v -> [| d.(0); d.(1); v.(0) |])
  in
  let db = Mde_mcdb.Database.create () in
  Mde_mcdb.Database.add_stochastic db st;
  db

(* Served through the unified columnar substrate: a global Avg(sbp)
   accumulates the sum in row order and divides once, exactly like the
   naive fold, so registered models keep answering identical bits. *)
let mean_sbp catalog =
  let t = Columnar.of_table (Catalog.find catalog "SBP_DATA") in
  let out =
    Columnar.group_by ~keys:[] ~aggs:[ ("mean_sbp", Aggregate.Avg (Expr.col "sbp")) ] t
  in
  Value.to_float (Columnar.to_table out |> Table.rows).(0).(0)

let walk_chain () =
  let schema = Schema.of_list [ ("x", Value.Tfloat) ] in
  let table x = Table.create schema [ [| Value.Float x |] ] in
  let current state = Value.to_float (Table.rows (Chain.table state "X")).(0).(0) in
  ( {
      Chain.initial = (fun _rng -> Chain.state_of_tables [ ("X", table 0.) ]);
      transition =
        (fun rng state ->
          Chain.with_table state "X" (table (current state +. Rng.float rng -. 0.5)));
    },
    current )

(* The columnar twin of [mean_sbp]: per-repetition Avg(sbp) in one fused
   bundle pass accumulates rows in the same order as [Table.iter] over
   the realized instance, so the served samples are bit-identical. *)
let sbp_plan =
  {
    Mde_mcdb.Bundle.where_ = None;
    derive = [];
    group_keys = [];
    aggs = [ ("mean_sbp", Aggregate.Avg (Expr.col "sbp")) ];
  }

let queue_composite =
  {
    Mde_composite.Result_cache.model1 = (fun rng -> 10. *. Rng.float rng);
    model2 = (fun rng y1 -> y1 +. Rng.float rng);
  }

let server ?pool ?clock ?cache_capacity ?cache_ttl ?scheduler ?admission
    ?(rows = 120) () =
  let t =
    Server.create ?pool ?clock ?cache_capacity ?cache_ttl ?scheduler ?admission ()
  in
  let db = sbp_database rows in
  Server.register_mcdb t ~name:"sbp" ~query:mean_sbp db;
  Server.register_mcdb_plan t ~name:"sbp_bundle" ~table:"SBP_DATA" ~plan:sbp_plan db;
  let chain, current = walk_chain () in
  Server.register_chain t ~name:"walk" ~query:current chain;
  Server.register_composite t ~name:"queue" queue_composite;
  t

(* The sharded twin of [server]: same models on every shard, plus the
   federated "sbp_any" name answered by whichever of the bundle / naive
   SBP backends is currently cheaper (identical bits either way). *)
let front ?pool ?clock ?cache_capacity ?cache_ttl ?scheduler ?admission
    ?high_water ?(rows = 120) ~shards () =
  let t =
    Shard.create ?pool ?clock ?cache_capacity ?cache_ttl ?scheduler ?admission
      ?high_water ~shards ()
  in
  let db = sbp_database rows in
  Shard.register_mcdb t ~name:"sbp" ~query:mean_sbp db;
  Shard.register_mcdb_plan t ~name:"sbp_bundle" ~table:"SBP_DATA" ~plan:sbp_plan db;
  let chain, current = walk_chain () in
  Shard.register_chain t ~name:"walk" ~query:current chain;
  Shard.register_composite t ~name:"queue" queue_composite;
  Shard.federate t ~name:"sbp_any" ~backends:[ "sbp_bundle"; "sbp" ];
  t

let catalog ?deadline size =
  if size < 1 then invalid_arg "Demo.catalog: size must be >= 1";
  Array.init size (fun i ->
      let seed = 1000 + i in
      let kind =
        match i mod 5 with
        | 0 -> Server.Mcdb_mean { reps = 32 + (16 * (i mod 3)) }
        | 1 -> Server.Mcdb_tail { reps = 64; p = 0.9 }
        | 2 -> Server.Chain_mean { steps = 8; reps = 24 }
        | 3 -> Server.Composite_estimate { n = 64; alpha = 0.25 }
        | _ -> Server.Mcdb_tail { reps = 64; p = 0.9 }
      in
      let model =
        match i mod 5 with
        | 0 | 1 -> "sbp"
        | 2 -> "walk"
        | 3 -> "queue"
        | _ -> "sbp_bundle"
      in
      { Server.model; kind; seed; deadline })

let responses_identical (a : Server.response) (b : Server.response) =
  a.Server.value = b.Server.value && a.Server.ci95 = b.Server.ci95
  && a.Server.reps_executed = b.Server.reps_executed

let cold_warm ?clock target ~catalog config =
  let cold, cold_responses = Workload.run ?clock target ~catalog config in
  let warm, warm_responses = Workload.run ?clock target ~catalog config in
  let compared = ref 0 and mismatches = ref 0 in
  Array.iteri
    (fun i (cold_r : Server.response option) ->
      match (cold_r, warm_responses.(i)) with
      | Some a, Some b when (not a.Server.degraded) && not b.Server.degraded ->
        incr compared;
        if not (responses_identical a b) then incr mismatches
      | _ -> ())
    cold_responses;
  ( cold,
    warm,
    if !mismatches = 0 then `Identical !compared else `Mismatch !mismatches )
