open Mde_relational
module Rng = Mde_prob.Rng

type params = {
  transmission_rate : float;
  exposed_days_mean : float;
  infectious_days_mean : float;
  initial_infectious : int;
  quarantine_damping : float;
  fear_gain : float;
  fear_decay : float;
  fear_distancing : float;
  edge_churn_per_1000 : int;
}

let default_params =
  {
    transmission_rate = 0.02;
    exposed_days_mean = 2.0;
    infectious_days_mean = 5.0;
    initial_infectious = 5;
    quarantine_damping = 0.1;
    (* Behavioural dynamics are off by default so the classic SEIR-style
       experiments stay comparable; switch them on per run. *)
    fear_gain = 0.;
    fear_decay = 0.1;
    fear_distancing = 0.;
    edge_churn_per_1000 = 0;
  }

type t = {
  network : Network.t;
  params : params;
  rng : Rng.t;
  mutable day : int;
  closures : (string, int) Hashtbl.t;  (* contact kind -> days remaining *)
  mutable closure_days_total : int;
}

let create ?(seed = 5) network params =
  if params.initial_infectious < 1 then
    invalid_arg "Indemics.create: initial_infectious must be at least 1";
  Network.reset network;
  let rng = Rng.create ~seed () in
  let n = Network.size network in
  let persons = Network.persons network in
  let seeded = ref 0 in
  while !seeded < Stdlib.min params.initial_infectious n do
    let id = Rng.int rng n in
    if persons.(id).Network.health = Network.Susceptible then begin
      persons.(id).Network.health <- Network.Infectious;
      persons.(id).Network.days_in_state <- 0;
      incr seeded
    end
  done;
  { network; params; rng; day = 0; closures = Hashtbl.create 4; closure_days_total = 0 }

let network t = t.network
let day t = t.day

(* Dwell-time exit probability for a mean-d geometric dwell. *)
let exit_prob mean_days = 1. /. Float.max 1. mean_days

let step_day t =
  let persons = Network.persons t.network in
  let n = Array.length persons in
  let newly_exposed = ref [] in
  (* Transmission: each infectious person exposes susceptible contacts. *)
  Array.iter
    (fun p ->
      if p.Network.health = Network.Infectious then
        List.iter
          (fun { Network.peer; hours; kind } ->
            let q = persons.(peer) in
            if q.Network.health = Network.Susceptible then begin
              let damp a =
                if a.Network.quarantined_days > 0 then t.params.quarantine_damping
                else 1.
              in
              let closure_damp =
                if Hashtbl.mem t.closures kind then t.params.quarantine_damping
                else 1.
              in
              (* Fearful individuals voluntarily reduce their contacts. *)
              let fear_damp a = 1. -. (t.params.fear_distancing *. a.Network.fear) in
              let effective =
                hours *. damp p *. damp q *. closure_damp *. fear_damp p
                *. fear_damp q
              in
              let prob = 1. -. exp (-.t.params.transmission_rate *. effective) in
              if Rng.bernoulli t.rng prob then newly_exposed := peer :: !newly_exposed
            end)
          (Network.contacts t.network p.Network.id))
    persons;
  (* Progression: E -> I -> R with geometric dwell times. *)
  Array.iter
    (fun p ->
      match p.Network.health with
      | Network.Exposed ->
        p.Network.days_in_state <- p.Network.days_in_state + 1;
        if Rng.bernoulli t.rng (exit_prob t.params.exposed_days_mean) then begin
          p.Network.health <- Network.Infectious;
          p.Network.days_in_state <- 0
        end
      | Network.Infectious ->
        p.Network.days_in_state <- p.Network.days_in_state + 1;
        if Rng.bernoulli t.rng (exit_prob t.params.infectious_days_mean) then begin
          p.Network.health <- Network.Recovered;
          p.Network.days_in_state <- 0
        end
      | Network.Susceptible | Network.Recovered | Network.Vaccinated -> ())
    persons;
  (* Apply the day's new exposures (a person counted once). *)
  let infected = ref 0 in
  List.iter
    (fun id ->
      let p = persons.(id) in
      if p.Network.health = Network.Susceptible then begin
        p.Network.health <- Network.Exposed;
        p.Network.days_in_state <- 0;
        incr infected
      end)
    (List.sort_uniq Int.compare !newly_exposed);
  (* Behavioural state: fear rises with infectious contacts, decays
     otherwise; the network itself churns community edges. *)
  if t.params.fear_gain > 0. then
    Array.iter
      (fun p ->
        let infectious_contacts =
          List.fold_left
            (fun acc { Network.peer; _ } ->
              if persons.(peer).Network.health = Network.Infectious then acc + 1
              else acc)
            0
            (Network.contacts t.network p.Network.id)
        in
        p.Network.fear <-
          Float.min 1.
            (Float.max 0.
               ((p.Network.fear *. (1. -. t.params.fear_decay))
               +. (t.params.fear_gain *. float_of_int infectious_contacts))))
      persons;
  if t.params.edge_churn_per_1000 > 0 then
    Network.churn_community_edges t.network t.rng
      ~count:(t.params.edge_churn_per_1000 * n / 1000);
  (* Quarantine and closure clocks tick down. *)
  for i = 0 to n - 1 do
    let p = persons.(i) in
    if p.Network.quarantined_days > 0 then
      p.Network.quarantined_days <- p.Network.quarantined_days - 1
  done;
  t.closure_days_total <- t.closure_days_total + Hashtbl.length t.closures;
  Hashtbl.filter_map_inplace
    (fun _ remaining -> if remaining > 1 then Some (remaining - 1) else None)
    t.closures;
  t.day <- t.day + 1;
  !infected

let person_schema =
  Schema.of_list
    [
      ("pid", Value.Tint);
      ("age", Value.Tint);
      ("household", Value.Tint);
      ("health", Value.Tstring);
      ("quarantined", Value.Tbool);
      ("fear", Value.Tfloat);
    ]

let person_table t =
  let rows =
    Array.map
      (fun p ->
        [|
          Value.Int p.Network.id;
          Value.Int p.Network.age;
          Value.Int p.Network.household;
          Value.String (Network.health_name p.Network.health);
          Value.Bool (p.Network.quarantined_days > 0);
          Value.Float p.Network.fear;
        |])
      (Network.persons t.network)
  in
  Table.of_rows person_schema rows

let infected_schema = Schema.of_list [ ("pid", Value.Tint) ]

let infected_table t =
  let rows =
    Array.to_list (Network.persons t.network)
    |> List.filter (fun p -> p.Network.health = Network.Infectious)
    |> List.map (fun p -> [| Value.Int p.Network.id |])
  in
  Table.create infected_schema rows

let catalog t =
  let c = Catalog.create () in
  Catalog.register c "Person" (person_table t);
  Catalog.register c "InfectedPerson" (infected_table t);
  c

type action = Vaccinate | Quarantine of int

let apply_intervention t ~pids action =
  let persons = Network.persons t.network in
  let changed = ref 0 in
  List.iter
    (fun pid ->
      if pid >= 0 && pid < Array.length persons then begin
        let p = persons.(pid) in
        match action with
        | Vaccinate ->
          if p.Network.health = Network.Susceptible then begin
            p.Network.health <- Network.Vaccinated;
            incr changed
          end
        | Quarantine days ->
          if p.Network.quarantined_days < days then begin
            p.Network.quarantined_days <- days;
            incr changed
          end
      end)
    pids;
  !changed

(* Algorithm 1 on the columnar engine: Preschool is the pid column of
   the persons aged 0-4, InfectedPreschool its key matches against
   InfectedPerson's pid column. *)
let vaccinate_preschoolers t =
  let preschool =
    Columnar.of_table (person_table t)
    |> Columnar.select Expr.(col "age" >= int 0 && col "age" <= int 4)
    |> Columnar.project [ "pid" ] |> Columnar.to_table
  in
  let infected = infected_table t in
  let n = Table.cardinality preschool in
  let pid = Table.columns preschool in
  let _, hits =
    Columnar.join_index (pid, n) (Table.columns infected, Table.cardinality infected)
  in
  if float_of_int (Array.length hits) > 0.01 *. float_of_int n then
    apply_intervention t
      ~pids:(List.init n (fun i -> Value.to_int (Column.value pid.(0) i 0)))
      Vaccinate
  else 0

type day_record = {
  day : int;
  susceptible : int;
  exposed : int;
  infectious : int;
  recovered : int;
  vaccinated : int;
  new_infections : int;
  interventions_applied : int;
}

let record (t : t) ~new_infections ~interventions_applied =
  {
    day = t.day;
    susceptible = Network.count_health t.network Network.Susceptible;
    exposed = Network.count_health t.network Network.Exposed;
    infectious = Network.count_health t.network Network.Infectious;
    recovered = Network.count_health t.network Network.Recovered;
    vaccinated = Network.count_health t.network Network.Vaccinated;
    new_infections;
    interventions_applied;
  }

let run ?(observe_every = 1) t ~days ~policy =
  if days < 0 then invalid_arg "Indemics.run: days must be non-negative";
  if observe_every < 1 then invalid_arg "Indemics.run: observe_every must be at least 1";
  let out = Array.make (days + 1) (record t ~new_infections:0 ~interventions_applied:0) in
  for d = 1 to days do
    let fresh = step_day t in
    let acted =
      if d mod observe_every = 0 then
        match policy with Some p -> p t | None -> 0
      else 0
    in
    out.(d) <- record t ~new_infections:fresh ~interventions_applied:acted
  done;
  out

let attack_rate records =
  if Array.length records = 0 then invalid_arg "Indemics.attack_rate: no records";
  let last = records.(Array.length records - 1) in
  let total =
    last.susceptible + last.exposed + last.infectious + last.recovered
    + last.vaccinated
  in
  float_of_int (last.exposed + last.infectious + last.recovered)
  /. float_of_int total

let close_contacts t ~kind ~days =
  if days <= 0 then invalid_arg "Indemics.close_contacts: days must be positive";
  let current = Option.value ~default:0 (Hashtbl.find_opt t.closures kind) in
  Hashtbl.replace t.closures kind (Stdlib.max current days)

let active_closures t =
  Hashtbl.fold (fun kind days acc -> (kind, days) :: acc) t.closures []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type cost_params = {
  infection_cost : float;
  vaccination_cost : float;
  closure_day_cost : float;
}

let default_cost_params =
  { infection_cost = 100.; vaccination_cost = 5.; closure_day_cost = 50. }

let economic_cost t costs records =
  if Array.length records = 0 then invalid_arg "Indemics.economic_cost: no records";
  let last = records.(Array.length records - 1) in
  let ever_infected =
    float_of_int (last.exposed + last.infectious + last.recovered)
  in
  (costs.infection_cost *. ever_infected)
  +. (costs.vaccination_cost *. float_of_int last.vaccinated)
  +. (costs.closure_day_cost *. float_of_int t.closure_days_total)
