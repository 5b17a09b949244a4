(* Section 4 experiments: kriging metamodels and factor screening, plus
   the PDES-MAS range-query study from Section 2.4. *)

module Design = Mde.Metamodel.Design
module Kriging = Mde.Metamodel.Kriging
module Screening = Mde.Metamodel.Screening
module Range_query = Mde.Abs.Range_query
module Rng = Mde.Prob.Rng
module Dist = Mde.Prob.Dist

(* KRIG — Gaussian-process metamodel quality and "simulation on demand". *)
let krig () =
  Util.section "KRIG" "Gaussian-process metamodels: interpolation and smoothing";
  (* A 2-d deterministic response over [0,1]^2. *)
  let f x = sin (4. *. x.(0)) +. (0.8 *. x.(1) *. x.(1)) +. (0.3 *. x.(0) *. x.(1)) in
  let rng = Rng.create ~seed:6 () in
  let rows =
    List.map
      (fun levels ->
        let coded = Design.nearly_orthogonal_lh ~rng ~factors:2 ~levels ~tries:100 in
        let design = Design.scale coded ~ranges:[| (0., 1.); (0., 1.) |] in
        let response = Array.map f design in
        let model, { Util.seconds = fit_time; _ } =
          Util.timed (fun () -> Kriging.fit_mle ~design ~response ())
        in
        (* Out-of-sample error on a 20x20 grid. *)
        let err = ref 0. and count = ref 0 in
        for a = 0 to 19 do
          for b = 0 to 19 do
            let x = [| float_of_int a /. 19.; float_of_int b /. 19. |] in
            err := !err +. ((Kriging.predict model x -. f x) ** 2.);
            incr count
          done
        done;
        let rmse = sqrt (!err /. float_of_int !count) in
        [ Util.i levels; Util.g3 rmse; Util.f3 fit_time ])
      [ 9; 17; 33 ]
  in
  Util.table [ "design points"; "grid RMSE"; "fit time s" ] rows;
  Util.note "";
  (* Stochastic kriging under noise. *)
  let design =
    Design.scale
      (Design.latin_hypercube ~rng ~factors:1 ~levels:15)
      ~ranges:[| (0., 1.) |]
  in
  let reps = 8 in
  let noisy = Array.map (fun x ->
      let samples = Array.init reps (fun _ ->
          f [| x.(0); 0.5 |] +. Dist.sample (Dist.Normal { mean = 0.; std = 0.3 }) rng)
      in
      (Mde.Prob.Stats.mean samples, Mde.Prob.Stats.variance samples /. float_of_int reps))
      design
  in
  let means = Array.map fst noisy and noise_var = Array.map snd noisy in
  let deterministic = Kriging.fit ~theta:[| 20. |] ~tau2:1. ~design ~response:means () in
  let stochastic =
    Kriging.fit_stochastic ~theta:[| 20. |] ~tau2:1. ~design ~means
      ~noise_variances:noise_var ()
  in
  let rmse model =
    let acc = ref 0. in
    for a = 0 to 50 do
      let x = [| float_of_int a /. 50. |] in
      acc := !acc +. ((Kriging.predict model x -. f [| x.(0); 0.5 |]) ** 2.)
    done;
    sqrt (!acc /. 51.)
  in
  Util.note "noisy responses (sd 0.3, %d reps/point): kriging RMSE %.3f vs stochastic kriging RMSE %.3f"
    reps (rmse deterministic) (rmse stochastic);
  Util.note "";
  Util.note
    "Paper shape: the BLUP interpolates deterministic outputs exactly and its";
  Util.note
    "accuracy improves with the design size; under Monte Carlo noise the";
  Util.note
    "stochastic-kriging Sigma_eps term smooths instead of chasing the noise."

(* SCREEN — sequential bifurcation vs the factorial alternative, plus GP
   length-scale screening. *)
let screen () =
  Util.section "SCREEN" "factor screening: sequential bifurcation and GP length-scales";
  let rng = Rng.create ~seed:7 () in
  let rows =
    List.map
      (fun factors ->
        (* Plant 3 important factors at random positions. *)
        let perm = Rng.permutation rng factors in
        let important = [ perm.(0); perm.(1); perm.(2) ] in
        let important_sorted = List.sort Int.compare important in
        let simulate x =
          List.fold_left (fun acc j -> acc +. ((2. +. float_of_int (j mod 3)) *. x.(j))) 15. important
        in
        let result =
          Screening.sequential_bifurcation ~threshold:0.5 ~factors ~simulate ()
        in
        let found = result.Screening.important = important_sorted in
        [ Util.i factors;
          String.concat "," (List.map string_of_int important_sorted);
          String.concat "," (List.map string_of_int result.Screening.important);
          string_of_bool found; Util.i result.Screening.runs_used;
          Printf.sprintf "2^%d = %.0f" factors (2. ** float_of_int factors) ])
      [ 8; 16; 32; 64 ]
  in
  Util.table
    [ "factors"; "planted"; "found"; "exact"; "runs used"; "full factorial" ]
    rows;
  Util.note "";
  (* Morris elementary effects on a nonlinear response over the unit
     cube: importance AND nonlinearity per factor. *)
  let morris_rng = Rng.create ~seed:17 () in
  let morris =
    Mde.Metamodel.Morris.screen ~trajectories:12 ~rng:morris_rng ~factors:5
      ~simulate:(fun x -> (3. *. x.(0)) +. (4. *. x.(2) *. x.(2)) +. (0.5 *. x.(4)))
      ()
  in
  Util.note "Morris screening on y = 3 x1 + 4 x3^2 + 0.5 x5 (%d runs):"
    morris.Mde.Metamodel.Morris.runs_used;
  Array.iter
    (fun (st : Mde.Metamodel.Morris.factor_stats) ->
      Util.note "  x%d: mu* = %.2f  sigma = %.2f%s"
        (st.Mde.Metamodel.Morris.factor + 1)
        st.Mde.Metamodel.Morris.mu_star st.Mde.Metamodel.Morris.sigma
        (if st.Mde.Metamodel.Morris.sigma > 0.5 then "  <- nonlinear" else ""))
    morris.Mde.Metamodel.Morris.stats;
  Util.note "";
  (* GP screening cross-check on a nonlinear response. *)
  let rng = Rng.create ~seed:8 () in
  let design = Array.init 40 (fun _ -> Array.init 5 (fun _ -> Rng.float rng)) in
  let response = Array.map (fun x -> sin (5. *. x.(3)) +. (0.5 *. x.(1))) design in
  let gp = Screening.gp_screening ~design ~response in
  Util.note "GP screening on y = sin(5 x4) + 0.5 x2 (5 factors, 40 LH points):";
  List.iter
    (fun (j, theta) -> Util.note "  factor x%d: theta = %.3g" (j + 1) theta)
    gp.Screening.ranked;
  Util.note "";
  Util.note
    "Paper shape: group testing finds the important factors in O(k log n) runs";
  Util.note
    "instead of 2^n; Morris trajectories add a nonlinearity fingerprint per";
  Util.note
    "factor at r(k+1) runs; and for complex metamodels the fitted GP";
  Util.note "length-scales rank the active factors first."

(* RANGE — PDES-MAS synchronized range queries. *)
let range () =
  Util.section "RANGE" "synchronized range queries over shared state (Section 2.4)";
  let rng = Rng.create ~seed:9 () in
  let rows =
    List.concat_map
      (fun n_agents ->
        (* Two SSV stores over identical write streams: whole-history
           bounds vs time-bucketed bounds. *)
        let plain = Range_query.create ~n_agents () in
        let bucketed = Range_query.create ~bucket_width:1.0 ~n_agents () in
        (* Agents random-walk a scalar SSV at their own rates (ALPs
           progressing through simulated time unevenly). *)
        let clock = Array.make n_agents 0. in
        let position = Array.make n_agents 0. in
        for _ = 1 to n_agents * 20 do
          let agent = Rng.int rng n_agents in
          clock.(agent) <- clock.(agent) +. Rng.float_pos rng;
          position.(agent) <-
            position.(agent) +. Dist.sample (Dist.Normal { mean = 0.; std = 1. }) rng;
          Range_query.write plain ~agent ~time:clock.(agent) ~value:position.(agent);
          Range_query.write bucketed ~agent ~time:clock.(agent) ~value:position.(agent)
        done;
        (* Range queries at past instants (early times favour bucketing). *)
        let queries = 200 in
        let run t =
          let query_rng = Rng.create ~seed:(10 + n_agents) () in
          let visited = ref 0 and matched = ref 0 and correct = ref 0 in
          for _ = 1 to queries do
            let time = Rng.float_range query_rng 0. 6. in
            let lo = Rng.float_range query_rng (-6.) 4. in
            let hi = lo +. 2. in
            let via_tree, stats = Range_query.range_query t ~time ~lo ~hi in
            let brute = Range_query.range_query_brute t ~time ~lo ~hi in
            visited := !visited + stats.Range_query.clp_nodes_visited;
            matched := !matched + stats.Range_query.matched;
            if via_tree = brute then incr correct
          done;
          (!visited, !matched, !correct)
        in
        let pv, pm, pc = run plain in
        let bv, _, bc = run bucketed in
        [
          [ Util.i n_agents; "whole-history"; Util.i (2 * n_agents - 1);
            Util.f2 (float_of_int pv /. float_of_int queries);
            Util.f2 (float_of_int pm /. float_of_int queries);
            Printf.sprintf "%d/%d" pc queries ];
          [ ""; "time-bucketed"; "";
            Util.f2 (float_of_int bv /. float_of_int queries);
            ""; Printf.sprintf "%d/%d" bc queries ];
        ])
      [ 256; 1024; 4096 ]
  in
  Util.table
    [ "agents"; "bounds"; "CLP nodes"; "avg nodes visited"; "avg matches";
      "matches brute force" ]
    rows;
  Util.note "";
  Util.note
    "Paper shape: the CLP tree answers instantaneous range queries issued at";
  Util.note
    "different simulated times exactly (validated against a full scan);";
  Util.note
    "time-bucketed subtree bounds sharpen the pruning for queries early in";
  Util.note
    "simulated time — the algorithmic headroom [52] says is still open."

let all = [
  ("krig", "GP metamodels / stochastic kriging (Section 4.1)", krig);
  ("screen", "factor screening (Section 4.3)", screen);
  ("range", "PDES-MAS range queries (Section 2.4)", range);
]
