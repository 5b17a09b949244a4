(* Section 2 experiments: MCDB tuple bundles, SimSQL Markov chains,
   DSGD spline fitting, MapReduce time alignment, gridfield regrid
   optimization, and the Indemics intervention (Algorithm 1). *)

open Mde.Relational
module Mcdb = Mde.Mcdb
module Chain = Mde.Simsql.Chain
module Self_join = Mde.Simsql.Self_join
module Series = Mde.Timeseries.Series
module Spline = Mde.Timeseries.Spline
module Sgd = Mde.Timeseries.Sgd
module Align = Mde.Timeseries.Align
module Mr_align = Mde.Timeseries.Mr_align
module Synthetic = Mde.Timeseries.Synthetic
module Grid = Mde.Gridfields.Grid
module Gridfield = Mde.Gridfields.Gridfield
module Network = Mde.Epidemic.Network
module Indemics = Mde.Epidemic.Indemics
module Rng = Mde.Prob.Rng
module Dist = Mde.Prob.Dist

(* Backward-walk price imputation — the paper's "executing a backward
   random walk starting at a given current price in order to estimate
   missing prior prices". *)
let mcdb_imputation () =
  Util.note "";
  Util.note "price imputation — backward random walk over the Database facade:";
  let stocks =
    Table.create
      (Schema.of_list [ ("ticker", Value.Tstring); ("price", Value.Tfloat); ("vol", Value.Tfloat) ])
      [
        [| Value.String "AAA"; Value.Float 100.; Value.Float 0.02 |];
        [| Value.String "BBB"; Value.Float 40.; Value.Float 0.05 |];
      ]
  in
  let st =
    Mcdb.Stochastic_table.define ~name:"PRICE_HISTORY"
      ~schema:
        (Schema.of_list
           [ ("ticker", Value.Tstring); ("step", Value.Tint); ("price", Value.Tfloat) ])
      ~driver:stocks
      ~vg:(Mcdb.Vg.backward_walk ~steps:5)
      ~params:(fun row ->
        [ Table.create
            (Schema.of_list [ ("p", Value.Tfloat); ("v", Value.Tfloat) ])
            [ [| row.(1); row.(2) |] ] ])
      ~combine:(fun driver vg_row -> [| driver.(0); vg_row.(0); vg_row.(1) |])
  in
  let db = Mcdb.Database.create () in
  Mcdb.Database.add_table db "STOCKS" stocks;
  Mcdb.Database.add_stochastic db st;
  let rng = Rng.create ~seed:6 () in
  List.iter
    (fun ticker ->
      let samples =
        Mcdb.Database.monte_carlo db rng ~reps:500 ~query:(fun catalog ->
            let history =
              Columnar.of_table (Catalog.find catalog "PRICE_HISTORY")
              |> Columnar.select
                   Expr.(col "ticker" = string ticker && col "step" = int (-5))
              |> Columnar.to_table
            in
            Value.to_float (Table.get history 0 "price"))
      in
      let e = Mcdb.Estimator.of_samples samples in
      Util.note "  %s price 5 ticks ago: %.2f +/- %.2f (q05 %.2f, q95 %.2f)" ticker
        e.Mcdb.Estimator.mean
        (1.96 *. e.Mcdb.Estimator.std_error)
        (Mcdb.Estimator.quantile samples 0.05)
        (Mcdb.Estimator.quantile samples 0.95))
    [ "AAA"; "BBB" ];
  Util.note
    "  (the imputed distribution widens with each ticker's volatility, as the";
  Util.note "  paper's VG-function example intends)"

(* MCDB — tuple-bundle execution vs naive instance-at-a-time. *)
let mcdb () =
  Util.section "MCDB" "tuple bundles vs instance-at-a-time query execution";
  let n_customers = 2_000 in
  let customers =
    Table.create
      (Schema.of_list [ ("cid", Value.Tint); ("region", Value.Tstring) ])
      (List.init n_customers (fun idx ->
           [| Value.Int idx; Value.String (if idx mod 2 = 0 then "east" else "west") |]))
  in
  let param =
    Table.create
      (Schema.of_list [ ("mean", Value.Tfloat); ("std", Value.Tfloat) ])
      [ [| Value.Float 50.; Value.Float 12. |] ]
  in
  let st =
    Mcdb.Stochastic_table.define ~name:"SALES"
      ~schema:
        (Schema.of_list
           [ ("cid", Value.Tint); ("region", Value.Tstring); ("amount", Value.Tfloat) ])
      ~driver:customers ~vg:Mcdb.Vg.normal
      ~params:(fun _ -> [ param ])
      ~combine:(fun d v -> [| d.(0); d.(1); v.(0) |])
  in
  let pred = Expr.(col "region" = string "east" && col "amount" > float 60.) in
  let run_bundle n_reps =
    let rng = Rng.create ~seed:1 () in
    let bundle = Mcdb.Bundle.of_stochastic_table st rng ~n_reps in
    let selected = Mcdb.Bundle.select pred bundle in
    match Mcdb.Bundle.aggregate [ ("s", Aggregate.Sum (Expr.col "amount")) ] selected with
    | [ (_, per) ] -> Mde.Prob.Stats.mean per.(0)
    | _ -> nan
  in
  let run_naive n_reps =
    let rng = Rng.create ~seed:1 () in
    let acc = ref 0. in
    for _ = 1 to n_reps do
      let instance = Mcdb.Stochastic_table.instantiate st rng in
      let filtered = Algebra.select pred instance in
      let total =
        Algebra.group_by ~keys:[] ~aggs:[ ("s", Algebra.Sum (Expr.col "amount")) ] filtered
      in
      acc := !acc +. Value.to_float (Table.get total 0 "s")
    done;
    !acc /. float_of_int n_reps
  in
  let rows =
    List.map
      (fun n_reps ->
        let bundle_answer, { Util.seconds = bundle_time; _ } =
          Util.timed (fun () -> run_bundle n_reps)
        in
        let naive_answer, { Util.seconds = naive_time; _ } =
          Util.timed (fun () -> run_naive n_reps)
        in
        [ Util.i n_reps; Util.g3 bundle_answer; Util.g3 naive_answer;
          Util.f3 bundle_time; Util.f3 naive_time;
          Util.f2 (naive_time /. Float.max 1e-9 bundle_time) ])
      [ 10; 50; 200 ]
  in
  Util.table
    [ "MC reps"; "bundle E[sum]"; "naive E[sum]"; "bundle s"; "naive s"; "speedup" ]
    rows;
  Util.note "";
  Util.note
    "Paper shape: executing the plan once over tuple bundles beats running it";
  Util.note
    "per Monte Carlo instance, with the gap widening in the repetition count.";
  (* Risk + threshold queries (MCDB-R, [5, 42]). *)
  let rng = Rng.create ~seed:2 () in
  let bundle = Mcdb.Bundle.of_stochastic_table st rng ~n_reps:2_000 in
  match Mcdb.Bundle.aggregate ~keys:[ "region" ] [ ("s", Aggregate.Sum (Expr.col "amount")) ] bundle with
  | groups ->
    Util.note "";
    Util.note "risk extension — per-region revenue distribution over 2000 reps:";
    List.iter
      (fun (key, per) ->
        let samples = per.(0) in
        let q99 = Mcdb.Estimator.extreme_quantile samples 0.99 in
        let cte = Mcdb.Estimator.conditional_tail_expectation samples 0.99 in
        let p, (lo, hi) =
          Mcdb.Estimator.threshold_probability samples 50_200.
        in
        Util.note
          "  %s: q99 = %.0f, CTE99 = %.0f, P(revenue > 50200) = %.3f [%.3f, %.3f]"
          (Value.to_display key.(0)) q99 cte p lo hi)
      groups;
    mcdb_imputation ()

(* SIMSQL — a database-valued Markov chain over versioned stochastic
   tables, plus the ABS-step-as-self-join scalability observation. *)
let simsql () =
  Util.section "SIMSQL" "database-valued Markov chain + ABS step as self-join";
  let wealth_schema = Schema.of_list [ ("acct", Value.Tint); ("amount", Value.Tfloat) ] in
  let vol_schema = Schema.of_list [ ("sigma", Value.Tfloat) ] in
  let chain =
    {
      Chain.initial =
        (fun _ ->
          Chain.state_of_tables
            [
              ( "wealth",
                Table.create wealth_schema
                  (List.init 100 (fun a -> [| Value.Int a; Value.Float 100. |])) );
              ("vol", Table.create vol_schema [ [| Value.Float 1. |] ]);
            ]);
      transition =
        (fun rng state ->
          let vol = Value.to_float (Table.get (Chain.table state "vol") 0 "sigma") in
          let fresh_vol =
            Float.max 0.2
              (1. +. (0.7 *. (vol -. 1.))
              +. Dist.sample (Dist.Normal { mean = 0.; std = 0.15 }) rng)
          in
          let wealth = Chain.table state "wealth" in
          let next =
            Table.of_rows wealth_schema
              (Array.map
                 (fun row ->
                   [| row.(0);
                      Value.Float
                        (Value.to_float row.(1)
                        +. Dist.sample (Dist.Normal { mean = 0.5; std = vol }) rng) |])
                 (Table.rows wealth))
          in
          Chain.with_table
            (Chain.with_table state "wealth" next)
            "vol"
            (Table.create vol_schema [ [| Value.Float fresh_vol |] ]));
    }
  in
  let rng = Rng.create ~seed:3 () in
  let query state =
    Mde.Prob.Stats.mean (Table.column_floats (Chain.table state "wealth") "amount")
  in
  let reps = Chain.monte_carlo chain rng ~steps:30 ~reps:50 ~query in
  let at_step s = Array.map (fun rep -> rep.(s)) reps in
  Util.table
    [ "version"; "E[mean wealth]"; "sd across reps" ]
    (List.map
       (fun s ->
         let xs = at_step s in
         [ Printf.sprintf "D[%d]" s; Util.f2 (Mde.Prob.Stats.mean xs);
           Util.f2 (Mde.Prob.Stats.std xs) ])
       [ 0; 5; 10; 20; 30 ]);
  Util.note "";
  Util.note
    "Paper shape: the chain D[0], D[1], ... drifts upward (+0.5/step) while the";
  Util.note "versioned vol table recursively parametrizes the wealth updates.";
  (* Self-join scalability: candidate pairs with and without bucketing. *)
  let agent_schema =
    Schema.of_list
      [ ("id", Value.Tint); ("x", Value.Tfloat); ("y", Value.Tfloat); ("v", Value.Tfloat) ]
  in
  let rng = Rng.create ~seed:4 () in
  let agents n =
    Table.create agent_schema
      (List.init n (fun a ->
           [| Value.Int a; Value.Float (Rng.float_range rng 0. 30.);
              Value.Float (Rng.float_range rng 0. 30.); Value.Float 0. |]))
  in
  let neighbor schema a b =
    let get row c = Value.to_float row.(Schema.column_index schema c) in
    let dx = get a "x" -. get b "x" and dy = get a "y" -. get b "y" in
    (dx *. dx) +. (dy *. dy) <= 1.
  in
  let update _ _ row nbrs =
    let out = Array.copy row in
    out.(3) <- Value.Float (float_of_int (List.length nbrs));
    out
  in
  Util.note "";
  Util.note "ABS step as self-join — candidate pairs examined:";
  Util.table
    [ "agents"; "full join"; "grid-bucketed"; "reduction" ]
    (List.map
       (fun n ->
         let t = agents n in
         let r1 = Rng.create ~seed:5 () and r2 = Rng.create ~seed:5 () in
         let _, full = Self_join.step ~neighbor ~update r1 t in
         let _, bucketed =
           Self_join.step
             ~buckets:(Self_join.grid_buckets ~x:"x" ~y:"y" ~cell:1.0 agent_schema)
             ~neighbor ~update r2 t
         in
         [ Util.i n; Util.i full.Self_join.candidate_pairs;
           Util.i bucketed.Self_join.candidate_pairs;
           Util.f2
             (float_of_int full.Self_join.candidate_pairs
             /. float_of_int (max 1 bucketed.Self_join.candidate_pairs)) ])
       [ 200; 500; 1000 ]);
  Util.note "";
  Util.note
    "Paper shape: because agents interact only with nearby agents, partitioning";
  Util.note "the join makes the step scale far below the quadratic naive cost."

(* SPLINE — cubic-spline constants via the direct Thomas solve vs the
   stratified DSGD of [21], with shuffle accounting. *)
let spline () =
  Util.section "SPLINE" "cubic-spline constants: Thomas solve vs stratified DSGD";
  let rows =
    List.map
      (fun knots ->
        let series = Synthetic.smooth_signal ~seed:11 ~knots ~span:100. () in
        let a, b = Spline.system series in
        let problem = Sgd.of_tridiag a b in
        let direct, { Util.seconds = direct_time; _ } =
          Util.timed (fun () -> Mde.Linalg.Tridiag.solve a b)
        in
        let rng = Rng.create ~seed:12 () in
        let result, { Util.seconds = dsgd_time; _ } =
          Util.timed (fun () ->
              Sgd.dsgd ~rng ~schedule:(Sgd.Row_normalized 1.0) ~sub_epochs:100_000
                ~tol:1e-8
                ~strata:(Sgd.tridiagonal_strata ~dim:problem.Sgd.dim)
                problem)
        in
        let max_err =
          let worst = ref 0. in
          Array.iteri
            (fun idx v -> worst := Float.max !worst (Float.abs (v -. direct.(idx))))
            result.Sgd.solution;
          !worst
        in
        [ Util.i knots; Util.f3 direct_time; Util.f3 dsgd_time;
          Util.i result.Sgd.stratum_switches; Util.g3 max_err;
          Util.g3 result.Sgd.final_residual ])
      [ 1_000; 10_000; 50_000 ]
  in
  Util.table
    [ "knots"; "Thomas s"; "DSGD s"; "stratum switches"; "max |x-x*|"; "residual" ]
    rows;
  Util.note "";
  Util.note
    "Paper shape: on one node Thomas wins on raw time, but it is inherently";
  Util.note
    "sequential; DSGD reaches the same constants while synchronizing only at";
  Util.note
    "stratum switches (hundreds of barriers — 'negligible shuffling' — vs";
  Util.note "shipping the whole tridiagonal system through a cluster shuffle)."

(* ALIGN — windowed interpolation on the MapReduce substrate. *)
let align () =
  Util.section "ALIGN" "time alignment at scale on the MapReduce substrate";
  let source = Synthetic.smooth_signal ~seed:13 ~knots:5_000 ~span:1_000. () in
  let target_times = Series.regular_times ~start:0.05 ~step:0.013 ~count:60_000 in
  let rows =
    List.map
      (fun (name, kind) ->
        let result, { Util.seconds = elapsed; _ } =
          Util.timed (fun () ->
              Mr_align.interpolate ~partitions:16 ~kind source ~target_times)
        in
        let seq, { Util.seconds = seq_time; _ } =
          Util.timed (fun () ->
              Align.align
                (Align.Interpolate (match kind with `Linear -> Align.Linear | `Cubic -> Align.Cubic))
                source ~target_times)
        in
        let rmse =
          Mde.Prob.Stats.root_mean_square_error
            (Series.values result.Mr_align.target)
            (Series.values seq)
        in
        [ name; Util.i (Series.length result.Mr_align.target);
          Util.i result.Mr_align.interpolation_stats.Mde.Mapred.Job.records_shuffled;
          Util.i result.Mr_align.sort_stats.Mde.Mapred.Job.records_shuffled;
          Util.f3 elapsed; Util.f3 seq_time; Util.g3 rmse ])
      [ ("linear", `Linear); ("cubic spline", `Cubic) ]
  in
  Util.table
    [ "kind"; "targets"; "map shuffle"; "sort shuffle"; "MR s"; "seq s"; "RMSE vs seq" ]
    rows;
  Util.note "";
  Util.note
    "Paper shape: windows make interpolation embarrassingly parallel (the only";
  Util.note
    "shuffle is the final parallel sort), and the distributed answer matches";
  Util.note "the sequential aligner to machine precision.";
  (* Aggregation direction, for completeness. *)
  let coarse = Series.regular_times ~start:10. ~step:10. ~count:99 in
  let aligned, cls = Align.auto source ~target_times:coarse in
  Util.note "";
  Util.note "aggregation direction: classified %s, %d -> %d ticks"
    (match cls with
    | Align.Needs_aggregation -> "Needs_aggregation"
    | Align.Needs_interpolation -> "Needs_interpolation"
    | Align.Identical -> "Identical")
    (Series.length source) (Series.length aligned)

(* GRID — gridfield regrid with the restriction-pushdown rewrite. *)
let grid () =
  Util.section "GRID" "gridfield regrid and the restrict/regrid commutation";
  let fine_n = 96 and coarse_n = 24 in
  let fine = Grid.regular_2d ~nx:fine_n ~ny:fine_n in
  let coarse = Grid.regular_2d ~nx:coarse_n ~ny:coarse_n in
  let fine_faces = Grid.cells_of_dim fine 2 in
  let coarse_faces = Grid.cells_of_dim coarse 2 in
  (* Bind a smooth field (e.g. salinity) to the fine faces. *)
  let field =
    Gridfield.bind fine ~dim:2 (fun id ->
        let pos = id mod (fine_n * fine_n) in
        sin (float_of_int (pos mod fine_n) /. 9.)
        +. cos (float_of_int (pos / fine_n) /. 13.))
  in
  let index_of = Hashtbl.create 1024 in
  Array.iteri (fun idx (c : Grid.cell) -> Hashtbl.add index_of c.Grid.id idx) fine_faces;
  let assignment id =
    match Hashtbl.find_opt index_of id with
    | None -> None
    | Some idx ->
      let fx = idx mod fine_n and fy = idx / fine_n in
      let cx = fx * coarse_n / fine_n and cy = fy * coarse_n / fine_n in
      Some coarse_faces.((cy * coarse_n) + cx).Grid.id
  in
  (* Region: the left quarter of the coarse grid. *)
  let coarse_index = Hashtbl.create 1024 in
  Array.iteri (fun idx (c : Grid.cell) -> Hashtbl.add coarse_index c.Grid.id idx) coarse_faces;
  let region id =
    match Hashtbl.find_opt coarse_index id with
    | Some idx -> idx mod coarse_n < coarse_n / 4
    | None -> false
  in
  let (naive_field, naive_stats), { Util.seconds = naive_time; _ } =
    Util.timed (fun () ->
        Gridfield.naive_regrid_then_restrict ~region ~assignment
          ~aggregate:Gridfield.Average ~target:coarse ~target_dim:2 field)
  in
  let (opt_field, opt_stats), { Util.seconds = opt_time; _ } =
    Util.timed (fun () ->
        Gridfield.restrict_then_regrid ~region ~assignment ~aggregate:Gridfield.Average
          ~target:coarse ~target_dim:2 field)
  in
  Util.table
    [ "plan"; "source cells touched"; "bound targets"; "time s" ]
    [
      [ "regrid then restrict"; Util.i naive_stats.Gridfield.source_cells_touched;
        Util.i (Gridfield.size naive_field); Util.f3 naive_time ];
      [ "restrict pushed down"; Util.i opt_stats.Gridfield.source_cells_touched;
        Util.i (Gridfield.size opt_field); Util.f3 opt_time ];
    ];
  let equal =
    Gridfield.size naive_field = Gridfield.size opt_field
    && Array.for_all
         (fun id ->
           Float.abs (Gridfield.value naive_field id -. Gridfield.value opt_field id)
           < 1e-9)
         (Gridfield.cells naive_field)
  in
  Util.note "";
  Util.note "results identical: %b" equal;
  Util.note
    "Paper shape: the Howe-Maier commutation lets the restriction prune ~%d%%"
    (100
    - (100 * opt_stats.Gridfield.source_cells_touched
      / max 1 naive_stats.Gridfield.source_cells_touched));
  Util.note "of the source cells before the expensive regrid aggregation."

(* ALG1 — the Indemics intervention experiment. *)
let alg1 () =
  Util.section "ALG1" "Indemics: SQL-specified vaccination policy (Algorithm 1)";
  let days = 150 in
  let run ?(params = Indemics.default_params) p =
    let network = Network.synthetic ~seed:7 ~n:10_000 ~community_degree:4. () in
    let engine = Indemics.create ~seed:12 network params in
    Indemics.run engine ~days ~policy:p
  in
  let baseline = run None in
  let with_policy = run (Some Indemics.vaccinate_preschoolers) in
  (* Endogenous behaviour instead of mandated policy: fear-driven
     distancing (§2.4's behavioural state). *)
  let with_fear =
    run
      ~params:
        { Indemics.default_params with
          Indemics.fear_gain = 0.04;
          fear_distancing = 0.45;
          edge_churn_per_1000 = 5
        }
      None
  in
  let peak records =
    Array.fold_left (fun m (r : Indemics.day_record) -> max m r.Indemics.infectious) 0 records
  in
  let vaccinated records =
    records.(Array.length records - 1).Indemics.vaccinated
  in
  Util.table
    [ "metric"; "baseline"; "Algorithm 1"; "fear-driven distancing" ]
    [
      [ "attack rate"; Util.pct (Indemics.attack_rate baseline);
        Util.pct (Indemics.attack_rate with_policy);
        Util.pct (Indemics.attack_rate with_fear) ];
      [ "peak infectious"; Util.i (peak baseline); Util.i (peak with_policy);
        Util.i (peak with_fear) ];
      [ "vaccinated"; Util.i (vaccinated baseline); Util.i (vaccinated with_policy);
        Util.i (vaccinated with_fear) ];
    ];
  let curve records =
    Util.spark
      (Array.map (fun (r : Indemics.day_record) -> float_of_int r.Indemics.infectious) records)
  in
  Util.note "";
  Util.note "infectious curve (baseline):    %s" (curve baseline);
  Util.note "infectious curve (Algorithm 1): %s" (curve with_policy);
  Util.note "";
  Util.note
    "Paper shape: pausing the simulation to run SQL queries over Person and";
  Util.note
    "InfectedPerson and vaccinating the selected subpopulation flattens the";
  Util.note
    "epidemic at a fraction of the population vaccinated; endogenous fear-";
  Util.note
    "driven distancing (the behavioural state of Indemics nodes) also damps";
  Util.note "the epidemic with no mandated intervention at all."

(* PLANOPT — classical query optimization with catalog statistics, the
   machinery Section 2.3 says simulation-run optimization subsumes. *)
let planopt () =
  Util.section "PLANOPT" "catalog-driven query optimization (Section 2.3's subsumed problem)";
  let rng = Rng.create ~seed:8 () in
  let cat = Catalog.create () in
  let regions = 8 and customers = 2_000 and orders = 40_000 in
  Catalog.register cat "regions"
    (Table.create
       (Schema.of_list [ ("rid", Value.Tint); ("rname", Value.Tstring) ])
       (List.init regions (fun i -> [| Value.Int i; Value.String (Printf.sprintf "r%d" i) |])));
  Catalog.register cat "customers"
    (Table.create
       (Schema.of_list [ ("cid", Value.Tint); ("crid", Value.Tint) ])
       (List.init customers (fun i -> [| Value.Int i; Value.Int (Rng.int rng regions) |])));
  Catalog.register cat "orders"
    (Table.create
       (Schema.of_list [ ("oid", Value.Tint); ("ocid", Value.Tint); ("amount", Value.Tfloat) ])
       (List.init orders (fun i ->
            [| Value.Int i; Value.Int (Rng.int rng customers);
               Value.Float (Rng.float_range rng 0. 100.) |])));
  let naive =
    Plan.select
      Expr.(col "rname" = string "r3" && col "amount" > float 90.)
      (Plan.join ~on:[ ("ocid", "cid") ]
         (Plan.scan "orders")
         (Plan.join ~on:[ ("crid", "rid") ] (Plan.scan "customers") (Plan.scan "regions")))
  in
  let optimized = Plan.optimize cat naive in
  let report label plan =
    let cost = Plan.estimate_cost cat plan in
    let result, { Util.seconds = elapsed; _ } =
      Util.timed (fun () -> Plan.execute cat plan)
    in
    [ label; Util.g3 cost.Plan.intermediate_rows; Util.g3 cost.Plan.estimated_rows;
      Util.i (Table.cardinality result); Util.f3 elapsed ]
  in
  Util.table
    [ "plan"; "est. intermediate rows"; "est. result"; "actual result"; "time s" ]
    [ report "as written" naive; report "optimized" optimized ];
  Util.note "";
  Util.note "optimized plan:";
  Format.printf "%a@." Plan.pp optimized;
  Util.note "";
  Util.note
    "Paper shape: selection pushdown + statistics-driven join ordering return";
  Util.note
    "exactly the same rows while shrinking the intermediate volume and the";
  Util.note
    "wall-clock by roughly an order of magnitude — the catalog-statistics";
  Util.note "machinery Section 2.3 wants reused for simulation-run optimization."

let all = [
  ("mcdb", "tuple bundles, risk and threshold queries (Section 2.1)", mcdb);
  ("simsql", "database-valued Markov chain, self-join ABS (Section 2.1)", simsql);
  ("spline", "DSGD vs Thomas for spline constants (Section 2.2)", spline);
  ("align", "MapReduce time alignment (Section 2.2)", align);
  ("grid", "gridfield regrid optimization (Section 2.2)", grid);
  ("alg1", "Indemics intervention (Section 2.4, Algorithm 1)", alg1);
  ("planopt", "catalog-driven query optimization (Section 2.3)", planopt);
]
