open Mde_relational
module Network = Mde_epidemic.Network
module Indemics = Mde_epidemic.Indemics

let net () = Network.synthetic ~seed:1 ~n:800 ~community_degree:4. ()

let test_synthetic_network_shape () =
  let n = net () in
  Alcotest.(check int) "size" 800 (Network.size n);
  Alcotest.(check bool) "has edges" true (Network.edge_count n > 800);
  (* Roughly 6% preschoolers. *)
  let preschool =
    Array.fold_left
      (fun acc p -> if p.Network.age <= 4 then acc + 1 else acc)
      0 (Network.persons n)
  in
  Alcotest.(check bool)
    (Printf.sprintf "preschoolers %d in [20, 90]" preschool)
    true
    (preschool >= 20 && preschool <= 90);
  (* Household contacts are symmetric. *)
  let ok = ref true in
  Array.iter
    (fun p ->
      List.iter
        (fun { Network.peer; _ } ->
          if
            not
              (List.exists
                 (fun c -> c.Network.peer = p.Network.id)
                 (Network.contacts n peer))
          then ok := false)
        (Network.contacts n p.Network.id))
    (Network.persons n);
  Alcotest.(check bool) "symmetric" true !ok

let test_reset () =
  let n = net () in
  let engine = Indemics.create ~seed:2 n Indemics.default_params in
  ignore (Indemics.step_day engine);
  Network.reset n;
  Alcotest.(check int) "all susceptible" 800
    (Network.count_health n Network.Susceptible)

let total_population records =
  let last = records.(Array.length records - 1) in
  last.Indemics.susceptible + last.Indemics.exposed + last.Indemics.infectious
  + last.Indemics.recovered + last.Indemics.vaccinated

let test_population_conserved () =
  let engine = Indemics.create ~seed:3 (net ()) Indemics.default_params in
  let records = Indemics.run engine ~days:60 ~policy:None in
  Array.iter
    (fun (r : Indemics.day_record) ->
      Alcotest.(check int)
        (Printf.sprintf "day %d conserved" r.Indemics.day)
        800
        (r.Indemics.susceptible + r.Indemics.exposed + r.Indemics.infectious
        + r.Indemics.recovered + r.Indemics.vaccinated))
    records;
  Alcotest.(check int) "total" 800 (total_population records)

let test_zero_transmission_dies_out () =
  let params = { Indemics.default_params with transmission_rate = 0. } in
  let engine = Indemics.create ~seed:4 (net ()) params in
  let records = Indemics.run engine ~days:100 ~policy:None in
  let last = records.(100) in
  Alcotest.(check int) "no spread beyond seeds" 5
    (last.Indemics.exposed + last.Indemics.infectious + last.Indemics.recovered)

let test_epidemic_spreads () =
  let engine = Indemics.create ~seed:5 (net ()) Indemics.default_params in
  let records = Indemics.run engine ~days:150 ~policy:None in
  let rate = Indemics.attack_rate records in
  Alcotest.(check bool)
    (Printf.sprintf "attack rate %.2f substantial" rate)
    true (rate > 0.2)

let test_relational_session () =
  let engine = Indemics.create ~seed:6 (net ()) Indemics.default_params in
  for _ = 1 to 10 do
    ignore (Indemics.step_day engine)
  done;
  let cat = Indemics.catalog engine in
  let person = Catalog.find cat "Person" in
  Alcotest.(check int) "person rows" 800 (Table.cardinality person);
  let infected = Catalog.find cat "InfectedPerson" in
  Alcotest.(check int) "infected table consistent"
    (Network.count_health (Indemics.network engine) Network.Infectious)
    (Table.cardinality infected);
  (* The paper's query shape: count preschoolers via SQL. *)
  let n_preschool =
    Columnar.of_table person
    |> Columnar.select Expr.(col "age" <= int 4)
    |> Columnar.row_count
  in
  Alcotest.(check bool) "preschool count positive" true (n_preschool > 0)

let test_vaccination_intervention () =
  let engine = Indemics.create ~seed:7 (net ()) Indemics.default_params in
  let persons = Indemics.person_table engine in
  let all_pids =
    Array.to_list (Table.rows persons) |> List.map (fun row -> Value.to_int row.(0))
  in
  let changed = Indemics.apply_intervention engine ~pids:all_pids Indemics.Vaccinate in
  (* Everyone susceptible (795 after 5 seeds) becomes vaccinated. *)
  Alcotest.(check int) "795 vaccinated" 795 changed;
  let records = Indemics.run engine ~days:60 ~policy:None in
  let last = records.(60) in
  Alcotest.(check int) "nobody new infected" 0 last.Indemics.susceptible;
  Alcotest.(check bool) "epidemic contained" true
    (last.Indemics.recovered + last.Indemics.infectious + last.Indemics.exposed <= 5)

(* Algorithm 1: vaccinate preschoolers when >1 % of them are infected —
   written by hand over the session's rows, the oracle for
   [Indemics.vaccinate_preschoolers]. *)
let preschool_policy engine =
  let cat = Indemics.catalog engine in
  let person = Catalog.find cat "Person" in
  let infected = Catalog.find cat "InfectedPerson" in
  let infected_ids =
    Array.fold_left
      (fun acc row -> Value.to_int row.(0) :: acc)
      [] (Table.rows infected)
  in
  (* Person rows are (pid, age, ...). *)
  let preschool_ids =
    List.filter_map
      (fun row -> if Value.to_int row.(1) <= 4 then Some (Value.to_int row.(0)) else None)
      (Array.to_list (Table.rows person))
  in
  let n_preschool = List.length preschool_ids in
  let n_infected_preschool =
    List.length (List.filter (fun pid -> List.mem pid infected_ids) preschool_ids)
  in
  if float_of_int n_infected_preschool > 0.01 *. float_of_int n_preschool then
    Indemics.apply_intervention engine ~pids:preschool_ids Indemics.Vaccinate
  else 0

let preschool_attack records engine =
  ignore records;
  let persons = Network.persons (Indemics.network engine) in
  let total = ref 0 and hit = ref 0 in
  Array.iter
    (fun p ->
      if p.Network.age <= 4 then begin
        incr total;
        match p.Network.health with
        | Network.Exposed | Network.Infectious | Network.Recovered -> incr hit
        | Network.Susceptible | Network.Vaccinated -> ()
      end)
    persons;
  float_of_int !hit /. float_of_int (Stdlib.max 1 !total)

let test_algorithm1_policy_reduces_preschool_attack () =
  let run policy seed =
    let engine = Indemics.create ~seed (net ()) Indemics.default_params in
    let records = Indemics.run engine ~days:120 ~policy in
    (preschool_attack records engine, records)
  in
  let baseline, _ = run None 8 in
  let protected_, records = run (Some preschool_policy) 8 in
  let vaccinations =
    Array.fold_left (fun acc r -> acc + r.Indemics.interventions_applied) 0 records
  in
  Alcotest.(check bool) "policy fired" true (vaccinations > 0);
  Alcotest.(check bool)
    (Printf.sprintf "preschool attack %.3f < %.3f" protected_ baseline)
    true
    (protected_ < baseline)

let test_algorithm1_matches_oracle () =
  let run policy =
    let engine = Indemics.create ~seed:8 (net ()) Indemics.default_params in
    Indemics.run engine ~days:120 ~policy:(Some policy)
  in
  let library = run Indemics.vaccinate_preschoolers in
  let oracle = run preschool_policy in
  Alcotest.(check bool) "policy fired" true
    (Array.exists (fun r -> r.Indemics.interventions_applied > 0) oracle);
  Alcotest.(check bool) "same day records" true (library = oracle)

let test_quarantine_reduces_spread () =
  let run policy seed =
    let engine = Indemics.create ~seed (net ()) Indemics.default_params in
    let records = Indemics.run engine ~days:100 ~policy in
    Indemics.attack_rate records
  in
  (* Quarantine every infectious person each day. *)
  let quarantine_policy engine =
    let infected = Indemics.infected_table engine in
    let pids =
      Array.to_list (Table.rows infected) |> List.map (fun r -> Value.to_int r.(0))
    in
    Indemics.apply_intervention engine ~pids (Indemics.Quarantine 14)
  in
  let baseline = run None 9 in
  let contained = run (Some quarantine_policy) 9 in
  Alcotest.(check bool)
    (Printf.sprintf "quarantine cuts attack (%.2f < %.2f)" contained baseline)
    true
    (contained < baseline)

let test_observation_interval () =
  (* Policy fires only on observation days. *)
  let fired_days = ref [] in
  let policy engine =
    fired_days := Indemics.day engine :: !fired_days;
    0
  in
  let engine = Indemics.create ~seed:24 (net ()) Indemics.default_params in
  let _ = Indemics.run ~observe_every:7 engine ~days:21 ~policy:(Some policy) in
  Alcotest.(check (list int)) "weekly observations" [ 21; 14; 7 ] !fired_days

let test_contact_closure () =
  let run close seed =
    let engine = Indemics.create ~seed (net ()) Indemics.default_params in
    if close then Indemics.close_contacts engine ~kind:"household" ~days:1000;
    let records = Indemics.run engine ~days:100 ~policy:None in
    Indemics.attack_rate records
  in
  let baseline = run false 21 in
  let closed = run true 21 in
  Alcotest.(check bool)
    (Printf.sprintf "closing households cuts attack (%.2f < %.2f)" closed baseline)
    true
    (closed < baseline)

let test_closure_clock () =
  let engine = Indemics.create ~seed:22 (net ()) Indemics.default_params in
  Indemics.close_contacts engine ~kind:"daycare" ~days:3;
  Alcotest.(check (list (pair string int))) "active" [ ("daycare", 3) ]
    (Indemics.active_closures engine);
  ignore (Indemics.step_day engine);
  ignore (Indemics.step_day engine);
  Alcotest.(check (list (pair string int))) "ticked down" [ ("daycare", 1) ]
    (Indemics.active_closures engine);
  ignore (Indemics.step_day engine);
  Alcotest.(check (list (pair string int))) "expired" []
    (Indemics.active_closures engine);
  (* Re-closing extends, never shortens. *)
  Indemics.close_contacts engine ~kind:"daycare" ~days:5;
  Indemics.close_contacts engine ~kind:"daycare" ~days:2;
  Alcotest.(check (list (pair string int))) "max of extensions" [ ("daycare", 5) ]
    (Indemics.active_closures engine)

let test_economic_cost () =
  let engine = Indemics.create ~seed:23 (net ()) Indemics.default_params in
  Indemics.close_contacts engine ~kind:"daycare" ~days:10;
  let records = Indemics.run engine ~days:50 ~policy:None in
  let costs = Indemics.default_cost_params in
  let cost = Indemics.economic_cost engine costs records in
  let last = records.(50) in
  let expected_floor =
    costs.Indemics.infection_cost
    *. float_of_int (last.Indemics.exposed + last.Indemics.infectious + last.Indemics.recovered)
    +. (costs.Indemics.closure_day_cost *. 10.)
  in
  Alcotest.(check (float 1e-6)) "cost decomposition" expected_floor cost

let test_fear_rises_and_distances () =
  let fearful =
    { Indemics.default_params with fear_gain = 0.2; fear_distancing = 0.9 }
  in
  (* Fear peaks mid-epidemic and decays once the threat passes, so track
     the running maximum of the population mean. *)
  let run params seed days =
    let engine = Indemics.create ~seed (net ()) params in
    let peak_fear = ref 0. in
    let spy _ =
      peak_fear := Float.max !peak_fear (Network.mean_fear (Indemics.network engine));
      0
    in
    let records = Indemics.run engine ~days ~policy:(Some spy) in
    (!peak_fear, Indemics.attack_rate records)
  in
  let fear_level, fearful_attack = run fearful 31 120 in
  let baseline_fear, baseline_attack = run Indemics.default_params 31 120 in
  Alcotest.(check (float 1e-9)) "no fear without gain" 0. baseline_fear;
  Alcotest.(check bool)
    (Printf.sprintf "population gets fearful (peak %.3f)" fear_level)
    true (fear_level > 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "distancing cuts attack (%.2f < %.2f)" fearful_attack baseline_attack)
    true
    (fearful_attack < baseline_attack)

let test_fear_queryable () =
  let params = { Indemics.default_params with fear_gain = 0.3; fear_distancing = 0.5 } in
  let engine = Indemics.create ~seed:32 (net ()) params in
  for _ = 1 to 40 do
    ignore (Indemics.step_day engine)
  done;
  let person = Indemics.person_table engine in
  let fearful =
    Columnar.of_table person
    |> Columnar.select Expr.(col "fear" > float 0.2)
    |> Columnar.row_count
  in
  Alcotest.(check bool) "fearful subpopulation queryable" true (fearful > 0)

let symmetric n =
  let ok = ref true in
  Array.iter
    (fun p ->
      List.iter
        (fun { Network.peer; _ } ->
          if
            not
              (List.exists (fun c -> c.Network.peer = p.Network.id) (Network.contacts n peer))
          then ok := false)
        (Network.contacts n p.Network.id))
    (Network.persons n);
  !ok

let test_edge_churn () =
  let n = net () in
  let before = Network.edge_count n in
  let rng = Mde_prob.Rng.create ~seed:33 () in
  Network.churn_community_edges n rng ~count:50;
  (* Edge count roughly preserved (fresh edges may occasionally collide
     with self-pairs and be skipped) and symmetry intact. *)
  let after = Network.edge_count n in
  Alcotest.(check bool)
    (Printf.sprintf "edge count stable (%d vs %d)" before after)
    true
    (abs (after - before) <= 5);
  Alcotest.(check bool) "still symmetric" true (symmetric n)

(* Preconditions raise Invalid_argument, with or without -noassert. *)
let rejects =
  let engine () = Indemics.create ~seed:2 (net ()) Indemics.default_params in
  List.map
    (fun (name, msg, f) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.check_raises name (Invalid_argument msg) f))
    [ ( "synthetic n < 10", "Network.synthetic: n must be at least 10",
        fun () -> ignore (Network.synthetic ~n:9 ~community_degree:4. ()) );
      ( "churn count < 0", "Network.churn_community_edges: count must be non-negative",
        fun () ->
          Network.churn_community_edges (net ()) (Mde_prob.Rng.create ~seed:1 ()) ~count:(-1) );
      ( "create without seeds", "Indemics.create: initial_infectious must be at least 1",
        fun () ->
          ignore
            (Indemics.create (net ()) { Indemics.default_params with initial_infectious = 0 }) );
      ( "run days < 0", "Indemics.run: days must be non-negative",
        fun () -> ignore (Indemics.run (engine ()) ~days:(-1) ~policy:None) );
      ( "run observe_every < 1", "Indemics.run: observe_every must be at least 1",
        fun () -> ignore (Indemics.run ~observe_every:0 (engine ()) ~days:3 ~policy:None) );
      ( "attack_rate of no records", "Indemics.attack_rate: no records",
        fun () -> ignore (Indemics.attack_rate [||]) );
      ( "close_contacts days <= 0", "Indemics.close_contacts: days must be positive",
        fun () -> Indemics.close_contacts (engine ()) ~kind:"daycare" ~days:0 );
      ( "economic_cost of no records", "Indemics.economic_cost: no records",
        fun () ->
          ignore (Indemics.economic_cost (engine ()) Indemics.default_cost_params [||]) ) ]

let () =
  Alcotest.run "mde_epidemic"
    [
      ( "network",
        [
          Alcotest.test_case "synthetic shape" `Quick test_synthetic_network_shape;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "dynamics",
        [
          Alcotest.test_case "population conserved" `Quick test_population_conserved;
          Alcotest.test_case "no transmission dies" `Quick test_zero_transmission_dies_out;
          Alcotest.test_case "epidemic spreads" `Quick test_epidemic_spreads;
        ] );
      ( "session",
        [ Alcotest.test_case "relational tables" `Quick test_relational_session ] );
      ( "interventions",
        [
          Alcotest.test_case "mass vaccination" `Quick test_vaccination_intervention;
          Alcotest.test_case "algorithm 1 policy" `Slow test_algorithm1_policy_reduces_preschool_attack;
          Alcotest.test_case "algorithm 1 == hand-written oracle" `Quick
            test_algorithm1_matches_oracle;
          Alcotest.test_case "quarantine" `Slow test_quarantine_reduces_spread;
          Alcotest.test_case "contact closure" `Slow test_contact_closure;
          Alcotest.test_case "observation interval" `Quick test_observation_interval;
          Alcotest.test_case "closure clock" `Quick test_closure_clock;
          Alcotest.test_case "economic cost" `Quick test_economic_cost;
          Alcotest.test_case "fear dynamics" `Slow test_fear_rises_and_distances;
          Alcotest.test_case "fear queryable" `Quick test_fear_queryable;
          Alcotest.test_case "edge churn" `Quick test_edge_churn;
        ] );
      ("preconditions", rejects);
    ]
