(* Indemics-style epidemic experimentation (paper §2.4, Algorithm 1):
   the simulation kernel advances a contact-network epidemic day by day;
   at each observation the experimenter queries the relational session
   and, when more than 1 % of preschoolers are infected, vaccinates all
   preschoolers — the paper's example intervention, specified as queries
   over the Person / InfectedPerson tables (Indemics.vaccinate_preschoolers).

   Run with: dune exec examples/epidemic_intervention.exe *)

module Network = Mde.Epidemic.Network
module Indemics = Mde.Epidemic.Indemics

let preschool_attack engine =
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
  float_of_int !hit /. float_of_int (max 1 !total)

let () =
  let days = 150 in
  let run policy =
    let network = Network.synthetic ~seed:7 ~n:5_000 ~community_degree:4. () in
    let engine = Indemics.create ~seed:12 network Indemics.default_params in
    let records = Indemics.run engine ~days ~policy in
    (engine, records)
  in
  Format.printf "Epidemic on a 5,000-person synthetic contact network, %d days.@.@." days;
  let baseline_engine, baseline = run None in
  let policy_engine, with_policy = run (Some Indemics.vaccinate_preschoolers) in
  let peak records =
    Array.fold_left (fun m (r : Indemics.day_record) -> max m r.Indemics.infectious) 0 records
  in
  let vaccinations =
    Array.fold_left (fun acc r -> acc + r.Indemics.interventions_applied) 0 with_policy
  in
  Format.printf "%-34s %12s %12s@." "" "baseline" "Algorithm 1";
  Format.printf "%-34s %11.1f%% %11.1f%%@." "overall attack rate"
    (100. *. Indemics.attack_rate baseline)
    (100. *. Indemics.attack_rate with_policy);
  Format.printf "%-34s %11.1f%% %11.1f%%@." "preschooler attack rate"
    (100. *. preschool_attack baseline_engine)
    (100. *. preschool_attack policy_engine);
  Format.printf "%-34s %12d %12d@." "peak infectious" (peak baseline) (peak with_policy);
  Format.printf "%-34s %12d %12d@." "vaccinations administered" 0 vaccinations;
  Format.printf "@.Epidemic curve (infectious, every 10 days):@.";
  Format.printf "%6s %10s %12s@." "day" "baseline" "Algorithm 1";
  Array.iteri
    (fun d (r : Indemics.day_record) ->
      if d mod 10 = 0 then
        Format.printf "%6d %10d %12d@." d r.Indemics.infectious
          with_policy.(d).Indemics.infectious)
    baseline
