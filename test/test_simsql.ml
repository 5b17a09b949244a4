open Mde_relational
module Rng = Mde_prob.Rng
module Chain = Mde_simsql.Chain
module Self_join = Mde_simsql.Self_join

let v_int i = Value.Int i
let v_float f = Value.Float f

(* A database-valued Markov chain: table "wealth" holds one row per
   account; each version adds a normal increment whose volatility is read
   from a second stochastic table "vol" that itself evolves — the mutual
   parametrization SimSQL enables. *)
let wealth_schema = Schema.of_list [ ("acct", Value.Tint); ("amount", Value.Tfloat) ]
let vol_schema = Schema.of_list [ ("sigma", Value.Tfloat) ]

let initial_state _rng =
  Chain.state_of_tables
    [
      ( "wealth",
        Table.create wealth_schema
          (List.init 8 (fun i -> [| v_int i; v_float 100. |])) );
      ("vol", Table.create vol_schema [ [| v_float 1.0 |] ]);
    ]

let transition rng state =
  let vol =
    Value.to_float (Table.get (Chain.table state "vol") 0 "sigma")
  in
  (* New vol: mean-reverting positive noise. *)
  let fresh_vol =
    Float.max 0.1
      (1.0 +. (0.5 *. (vol -. 1.0))
      +. Mde_prob.Dist.sample (Mde_prob.Dist.Normal { mean = 0.; std = 0.1 }) rng)
  in
  let wealth = Chain.table state "wealth" in
  let next_wealth =
    Table.of_rows wealth_schema
      (Array.map
         (fun row ->
           let bump =
             Mde_prob.Dist.sample (Mde_prob.Dist.Normal { mean = 1.; std = vol }) rng
           in
           [| row.(0); Value.Float (Value.to_float row.(1) +. bump) |])
         (Table.rows wealth))
  in
  let state = Chain.with_table state "wealth" next_wealth in
  Chain.with_table state "vol" (Table.create vol_schema [ [| v_float fresh_vol |] ])

let chain = { Chain.initial = initial_state; transition }

let total_wealth state =
  Array.fold_left
    (fun acc row -> acc +. Value.to_float row.(1))
    0.
    (Table.rows (Chain.table state "wealth"))

let test_simulate_length () =
  let rng = Rng.create ~seed:1 () in
  let states = Chain.simulate chain rng ~steps:10 in
  Alcotest.(check int) "steps+1 states" 11 (Array.length states);
  Alcotest.(check (list string)) "tables" [ "vol"; "wealth" ]
    (Chain.table_names states.(5))

let test_chain_is_markov_progression () =
  let rng = Rng.create ~seed:2 () in
  let series = Chain.simulate_query chain rng ~steps:20 ~query:total_wealth in
  Alcotest.(check (float 1e-9)) "initial total" 800. series.(0);
  (* Drift of +1 per account per step: expect roughly 800 + 8·20. *)
  Alcotest.(check bool) "drift visible" true (series.(20) > 850. && series.(20) < 1100.)

let test_monte_carlo_reps () =
  let rng = Rng.create ~seed:3 () in
  let reps = Chain.monte_carlo chain rng ~steps:5 ~reps:6 ~query:total_wealth in
  Alcotest.(check int) "6 reps" 6 (Array.length reps);
  Alcotest.(check int) "6 steps each" 6 (Array.length reps.(0));
  (* Different streams → different trajectories. *)
  Alcotest.(check bool) "reps differ" true (reps.(0).(5) <> reps.(1).(5))

let test_rules_sequencing () =
  (* Rule 2 must see rule 1's freshly derived table within the same step. *)
  let schema = Schema.of_list [ ("x", Value.Tfloat) ] in
  let initial _ =
    Chain.state_of_tables
      [
        ("a", Table.create schema [ [| v_float 1. |] ]);
        ("b", Table.create schema [ [| v_float 0. |] ]);
      ]
  in
  let rule_a =
    {
      Chain.Rules.target = "a";
      derive =
        (fun _ state ->
          let prev = Value.to_float (Table.get (Chain.table state "a") 0 "x") in
          Table.create schema [ [| v_float (prev +. 1.) |] ]);
    }
  in
  let rule_b =
    {
      Chain.Rules.target = "b";
      derive =
        (fun _ state ->
          (* Reads the already-updated "a". *)
          let a = Value.to_float (Table.get (Chain.table state "a") 0 "x") in
          Table.create schema [ [| v_float (a *. 10.) |] ]);
    }
  in
  let chain = { Chain.initial; transition = Chain.Rules.transition [ rule_a; rule_b ] } in
  let rng = Rng.create ~seed:4 () in
  let states = Chain.simulate chain rng ~steps:3 in
  let b3 = Value.to_float (Table.get (Chain.table states.(3) "b") 0 "x") in
  Alcotest.(check (float 1e-9)) "b tracks updated a" 40. b3

let test_vg_rule () =
  let schema = Schema.of_list [ ("id", Value.Tint); ("v", Value.Tfloat) ] in
  let driver = Table.create (Schema.of_list [ ("id", Value.Tint) ])
      [ [| v_int 0 |]; [| v_int 1 |]; [| v_int 2 |] ]
  in
  let rule =
    Chain.Rules.vg_rule ~target:"noise" ~schema
      ~driver:(fun _ -> driver)
      ~vg:Mde_mcdb.Vg.normal
      ~params:(fun state _row ->
        (* Parametrize from the previous version of the table itself:
           mean = previous global mean (recursive definition). *)
        let prev_mean =
          match Chain.table_opt state "noise" with
          | None -> 0.
          | Some t -> Mde_prob.Stats.mean (Table.column_floats t "v")
        in
        [
          Table.create
            (Schema.of_list [ ("m", Value.Tfloat); ("s", Value.Tfloat) ])
            [ [| v_float prev_mean; v_float 1.0 |] ];
        ])
      ~combine:(fun d v -> [| d.(0); v.(0) |])
  in
  let initial _ = Chain.state_of_tables [] in
  let chain = { Chain.initial; transition = Chain.Rules.transition [ rule ] } in
  let rng = Rng.create ~seed:5 () in
  let states = Chain.simulate chain rng ~steps:4 in
  Alcotest.(check int) "3 rows" 3 (Table.cardinality (Chain.table states.(4) "noise"))

let test_chain_validation () =
  let rng = Rng.create ~seed:6 () in
  Alcotest.check_raises "negative steps"
    (Invalid_argument "Chain.simulate: steps must be non-negative") (fun () ->
      ignore (Chain.simulate chain rng ~steps:(-1)));
  Alcotest.check_raises "non-positive reps"
    (Invalid_argument "Chain.monte_carlo: reps must be positive") (fun () ->
      ignore (Chain.monte_carlo chain rng ~steps:3 ~reps:0 ~query:total_wealth))

(* The last column of [monte_carlo], bit for bit, keeping one state per
   replication; sequential and on a 2-domain pool. *)
let test_final_values () =
  let bits = Array.map Int64.bits_of_float in
  Mde_par.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun steps ->
          let series =
            Chain.monte_carlo chain (Rng.create ~seed:12 ()) ~steps ~reps:9 ~query:total_wealth
          in
          let want = bits (Array.map (fun row -> row.(steps)) series) in
          let seq =
            Chain.final_values chain (Rng.create ~seed:12 ()) ~steps ~reps:9 ~query:total_wealth
          in
          let par =
            Chain.final_values ~pool chain (Rng.create ~seed:12 ()) ~steps ~reps:9
              ~query:total_wealth
          in
          Alcotest.(check (array int64)) (Printf.sprintf "steps=%d sequential" steps) want (bits seq);
          Alcotest.(check (array int64)) (Printf.sprintf "steps=%d pooled" steps) want (bits par))
        [ 0; 1; 7 ]);
  let rng = Rng.create ~seed:13 () in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative steps" true
    (raises (fun () -> Chain.final_values chain rng ~steps:(-1) ~reps:2 ~query:total_wealth));
  Alcotest.(check bool) "zero reps" true
    (raises (fun () -> Chain.final_values chain rng ~steps:3 ~reps:0 ~query:total_wealth))

let test_monte_carlo_pooled_identity () =
  Mde_par.Pool.with_pool ~domains:3 (fun pool ->
      let seq =
        Chain.monte_carlo chain (Rng.create ~seed:7 ()) ~steps:6 ~reps:8
          ~query:total_wealth
      in
      let par =
        Chain.monte_carlo ~pool chain (Rng.create ~seed:7 ()) ~steps:6 ~reps:8
          ~query:total_wealth
      in
      Alcotest.(check bool) "pooled == sequential, bit for bit" true
        (Array.for_all2
           (fun a b ->
             Array.for_all2
               (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
               a b)
           seq par))

(* A chain step that *is* a relational query: the plan-driven rule must
   produce exactly what the row-oracle executor produces on the same
   state, every step. *)
let test_plan_rule_matches_rows () =
  let totals_plan =
    Plan.project [ "amount"; "sigma" ]
      (Plan.join ~on:[] (Plan.scan "wealth") (Plan.scan "vol"))
  in
  let rule = Chain.Rules.plan_rule ~target:"exposure" totals_plan in
  let chain' = { Chain.initial = initial_state; transition = Chain.Rules.transition [ rule ] } in
  let states = Chain.simulate chain' (Rng.create ~seed:8 ()) ~steps:3 in
  Array.iter
    (fun state ->
      match Chain.table_opt state "exposure" with
      | None -> () (* D[0] has no derived table yet *)
      | Some derived ->
        let catalog = Catalog.create () in
        List.iter
          (fun name -> Catalog.register catalog name (Chain.table state name))
          [ "wealth"; "vol" ];
        let oracle = Plan.execute_rows catalog totals_plan in
        Alcotest.(check int) "cardinality" (Table.cardinality oracle)
          (Table.cardinality derived);
        Alcotest.(check bool) "plan_rule == execute_rows" true
          (Array.for_all2
             (fun ra rb ->
               Array.for_all2 (fun a b -> Value.compare a b = 0) ra rb)
             (Table.rows oracle) (Table.rows derived)))
    states

(* --- ABS step as self-join --- *)

let agent_schema =
  Schema.of_list [ ("id", Value.Tint); ("x", Value.Tfloat); ("y", Value.Tfloat); ("heat", Value.Tfloat) ]

let make_agents n seed =
  let rng = Rng.create ~seed () in
  Table.create agent_schema
    (List.init n (fun i ->
         [|
           v_int i;
           v_float (Rng.float_range rng 0. 10.);
           v_float (Rng.float_range rng 0. 10.);
           v_float (Rng.float_range rng 0. 1.);
         |]))

let dist2 schema a b =
  let get row col = Value.to_float row.(Schema.column_index schema col) in
  let dx = get a "x" -. get b "x" and dy = get a "y" -. get b "y" in
  (dx *. dx) +. (dy *. dy)

let neighbor schema a b = dist2 schema a b <= 1.0

(* Diffusion update: move heat toward the neighbourhood average. *)
let update _rng schema row neighbors =
  let heat_idx = Schema.column_index agent_schema "heat" in
  ignore schema;
  let mine = Value.to_float row.(heat_idx) in
  let next =
    match neighbors with
    | [] -> mine
    | ns ->
      let avg =
        List.fold_left (fun acc n -> acc +. Value.to_float n.(heat_idx)) 0. ns
        /. float_of_int (List.length ns)
      in
      0.5 *. (mine +. avg)
  in
  let out = Array.copy row in
  out.(heat_idx) <- Value.Float next;
  out

let test_self_join_bucketed_equals_full () =
  let agents = make_agents 60 7 in
  let rng1 = Rng.create ~seed:8 () and rng2 = Rng.create ~seed:8 () in
  let full, full_stats = Self_join.step ~neighbor ~update rng1 agents in
  let bucketed, bucket_stats =
    Self_join.step
      ~buckets:(Self_join.grid_buckets ~x:"x" ~y:"y" ~cell:1.0 agent_schema)
      ~neighbor ~update rng2 agents
  in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          Alcotest.(check bool)
            (Printf.sprintf "cell %d,%d equal" i j)
            true
            (Value.equal v (Table.rows bucketed).(i).(j)))
        row)
    (Table.rows full);
  Alcotest.(check bool)
    (Printf.sprintf "buckets prune pairs (%d < %d)" bucket_stats.Self_join.candidate_pairs
       full_stats.Self_join.candidate_pairs)
    true
    (bucket_stats.Self_join.candidate_pairs < full_stats.Self_join.candidate_pairs)

let test_self_join_stats () =
  let agents = make_agents 20 9 in
  let rng = Rng.create ~seed:10 () in
  let _, stats = Self_join.step ~neighbor ~update rng agents in
  Alcotest.(check int) "agents" 20 stats.Self_join.agents;
  Alcotest.(check int) "naive pairs" 400 stats.Self_join.naive_pairs;
  Alcotest.(check int) "full join candidates" (20 * 19) stats.Self_join.candidate_pairs

let test_self_join_synchronous () =
  (* Updates must read the pre-step table: two mutually-visible agents
     exchange values symmetrically. *)
  let schema = Schema.of_list [ ("id", Value.Tint); ("x", Value.Tfloat); ("y", Value.Tfloat); ("heat", Value.Tfloat) ] in
  let agents =
    Table.create schema
      [
        [| v_int 0; v_float 0.; v_float 0.; v_float 0. |];
        [| v_int 1; v_float 0.5; v_float 0.; v_float 1. |];
      ]
  in
  let rng = Rng.create ~seed:11 () in
  let stepped, _ = Self_join.step ~neighbor ~update rng agents in
  Alcotest.(check (float 1e-9)) "a" 0.5 (Value.to_float (Table.get stepped 0 "heat"));
  Alcotest.(check (float 1e-9)) "b" 0.5 (Value.to_float (Table.get stepped 1 "heat"))

let prop_bucketed_matches_full =
  QCheck.Test.make ~name:"bucketed self-join = full self-join" ~count:25
    QCheck.(int_range 5 40)
    (fun n ->
      let agents = make_agents n (n + 100) in
      let r1 = Rng.create ~seed:n () and r2 = Rng.create ~seed:n () in
      let full, _ = Self_join.step ~neighbor ~update r1 agents in
      let bucketed, _ =
        Self_join.step
          ~buckets:(Self_join.grid_buckets ~x:"x" ~y:"y" ~cell:1.0 agent_schema)
          ~neighbor ~update r2 agents
      in
      Array.for_all2
        (fun a b -> Array.for_all2 Value.equal a b)
        (Table.rows full) (Table.rows bucketed))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mde_simsql"
    [
      ( "chain",
        [
          Alcotest.test_case "simulate length" `Quick test_simulate_length;
          Alcotest.test_case "markov progression" `Quick test_chain_is_markov_progression;
          Alcotest.test_case "monte carlo reps" `Quick test_monte_carlo_reps;
          Alcotest.test_case "rules sequencing" `Quick test_rules_sequencing;
          Alcotest.test_case "vg rule recursion" `Quick test_vg_rule;
          Alcotest.test_case "validation" `Quick test_chain_validation;
          Alcotest.test_case "pooled monte carlo identity" `Quick
            test_monte_carlo_pooled_identity;
          Alcotest.test_case "final_values == last monte carlo column" `Quick
            test_final_values;
          Alcotest.test_case "plan rule == row oracle" `Quick test_plan_rule_matches_rows;
        ] );
      ( "self_join",
        [
          Alcotest.test_case "bucketed = full" `Quick test_self_join_bucketed_equals_full;
          Alcotest.test_case "stats" `Quick test_self_join_stats;
          Alcotest.test_case "synchronous semantics" `Quick test_self_join_synchronous;
        ] );
      ("properties", qc [ prop_bucketed_matches_full ]);
    ]
