(* Quickstart: the Monte Carlo database in ~60 lines.

   We recreate the paper's SBP_DATA example — a stochastic table of blood
   pressures driven by a patients table and a Normal VG function — then
   ask a what-if question with tuple-bundle execution:

     "What fraction of female patients would exceed 140 mmHg systolic?"

   Run with: dune exec examples/quickstart.exe *)

open Mde.Relational
module Mcdb = Mde.Mcdb

let () =
  (* 1. Ordinary (deterministic) relations. *)
  let patients_schema =
    Schema.of_list [ ("pid", Value.Tint); ("gender", Value.Tstring) ]
  in
  let patients =
    Table.create patients_schema
      (List.init 500 (fun i ->
           [| Value.Int i; Value.String (if i mod 2 = 0 then "F" else "M") |]))
  in
  let sbp_param =
    Table.create
      (Schema.of_list [ ("mean", Value.Tfloat); ("std", Value.Tfloat) ])
      [ [| Value.Float 120.; Value.Float 15. |] ]
  in
  (* 2. The stochastic table: FOR EACH p IN patients WITH sbp AS
     Normal(SELECT mean, std FROM sbp_param). *)
  let sbp_data =
    Mcdb.Stochastic_table.define ~name:"SBP_DATA"
      ~schema:
        (Schema.of_list
           [ ("pid", Value.Tint); ("gender", Value.Tstring); ("sbp", Value.Tfloat) ])
      ~driver:patients ~vg:Mcdb.Vg.normal
      ~params:(fun _patient -> [ sbp_param ])
      ~combine:(fun patient vg_row -> [| patient.(0); patient.(1); vg_row.(0) |])
  in
  (* 3. Instantiate 1000 Monte Carlo repetitions at once as tuple bundles
     (the query plan below runs once, not 1000 times). *)
  let rng = Mde.Prob.Rng.create ~seed:42 () in
  let bundle = Mcdb.Bundle.of_stochastic_table sbp_data rng ~n_reps:1000 in
  (* 4. The what-if query: σ(gender = F ∧ sbp > 140) → COUNT per rep. *)
  let hypertensive =
    Mcdb.Bundle.select
      Expr.(col "gender" = string "F" && col "sbp" > float 140.)
      bundle
  in
  (match Mcdb.Bundle.aggregate [ ("n", Aggregate.Count) ] hypertensive with
  | [ (_, per_agg) ] ->
    let counts = per_agg.(0) in
    let fractions = Array.map (fun c -> c /. 250.) counts in
    let estimate = Mcdb.Estimator.of_samples fractions in
    Format.printf "hypertensive fraction among women: %a@."
      Mcdb.Estimator.pp_estimate estimate;
    Format.printf "theory (P[N(120,15) > 140]):       %.4f@."
      (1. -. Mde.Prob.Special.normal_cdf (20. /. 15.));
    (* Risk-style queries over the same Monte Carlo samples. *)
    Format.printf "95th percentile of the fraction:   %.4f@."
      (Mcdb.Estimator.quantile fractions 0.95);
    let p, (lo, hi) = Mcdb.Estimator.threshold_probability fractions 0.10 in
    Format.printf "P(fraction > 10%%) = %.3f  (95%% CI [%.3f, %.3f])@." p lo hi
  | _ -> assert false)
