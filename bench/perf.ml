(* Bechamel microbenchmarks for the performance-sensitive kernels: one
   Test.make per operation, all run from the single bench executable
   (enable with --perf). *)

open Bechamel
module Instance = Bechamel.Toolkit.Instance
open Mde.Relational
module Rng = Mde.Prob.Rng
module Mcdb = Mde.Mcdb

let bundle_fixture =
  lazy
    (let customers =
       Table.create
         (Schema.of_list [ ("cid", Value.Tint); ("region", Value.Tstring) ])
         (List.init 1_000 (fun idx ->
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
     let rng = Rng.create ~seed:1 () in
     (st, Mcdb.Bundle.of_stochastic_table st rng ~n_reps:50))

let pred = Expr.(col "region" = string "east" && col "amount" > float 60.)

let test_bundle_query =
  Test.make ~name:"mcdb/bundle-query-kernel-50reps"
    (Staged.stage (fun () ->
         let _, bundle = Lazy.force bundle_fixture in
         let selected = Mcdb.Bundle.select pred bundle in
         Mcdb.Bundle.aggregate [ ("s", Aggregate.Sum (Expr.col "amount")) ] selected))

let test_naive_query =
  Test.make ~name:"mcdb/naive-query-50reps"
    (Staged.stage (fun () ->
         let st, _ = Lazy.force bundle_fixture in
         let rng = Rng.create ~seed:1 () in
         for _ = 1 to 50 do
           let instance = Mcdb.Stochastic_table.instantiate st rng in
           ignore
             (Algebra.group_by ~keys:[]
                ~aggs:[ ("s", Algebra.Sum (Expr.col "amount")) ]
                (Algebra.select pred instance))
         done))

let join_fixture =
  lazy
    (let rng = Rng.create ~seed:2 () in
     let schema k v = Schema.of_list [ (k, Value.Tint); (v, Value.Tfloat) ] in
     let make k v =
       Table.create (schema k v)
         (List.init 5_000 (fun _ ->
              [| Value.Int (Rng.int rng 1000); Value.Float (Rng.float rng) |]))
     in
     (make "a" "x", make "b" "y"))

let test_hash_join =
  Test.make ~name:"relational/hash-join-5kx5k"
    (Staged.stage (fun () ->
         let left, right = Lazy.force join_fixture in
         Algebra.equi_join ~on:[ ("a", "b") ] left right))

let tridiag_fixture =
  lazy
    (let series = Mde.Timeseries.Synthetic.smooth_signal ~seed:3 ~knots:5_000 ~span:100. () in
     Mde.Timeseries.Spline.system series)

let test_thomas =
  Test.make ~name:"spline/thomas-5k"
    (Staged.stage (fun () ->
         let a, b = Lazy.force tridiag_fixture in
         Mde.Linalg.Tridiag.solve a b))

let test_dsgd_subepochs =
  Test.make ~name:"spline/dsgd-30-subepochs-5k"
    (Staged.stage (fun () ->
         let a, b = Lazy.force tridiag_fixture in
         let problem = Mde.Timeseries.Sgd.of_tridiag a b in
         let rng = Rng.create ~seed:4 () in
         Mde.Timeseries.Sgd.dsgd ~rng
           ~schedule:(Mde.Timeseries.Sgd.Row_normalized 1.0)
           ~sub_epochs:30
           ~strata:(Mde.Timeseries.Sgd.tridiagonal_strata ~dim:problem.Mde.Timeseries.Sgd.dim)
           problem))

let fire_fixture =
  lazy
    (let params = Mde.Assimilate.Wildfire.default_params ~width:32 ~height:32 in
     let state = Mde.Assimilate.Wildfire.ignite params [ (16, 16) ] in
     let rng = Rng.create ~seed:5 () in
     let state = ref state in
     for _ = 1 to 10 do
       state := Mde.Assimilate.Wildfire.step rng !state
     done;
     !state)

let test_wildfire_step =
  Test.make ~name:"wildfire/step-32x32"
    (Staged.stage (fun () ->
         let rng = Rng.create ~seed:6 () in
         Mde.Assimilate.Wildfire.step rng (Lazy.force fire_fixture)))

let gp_fixture =
  lazy
    (let rng = Rng.create ~seed:7 () in
     let design = Array.init 40 (fun _ -> Array.init 2 (fun _ -> Rng.float rng)) in
     let response = Array.map (fun x -> sin (3. *. x.(0)) +. x.(1)) design in
     Mde.Metamodel.Kriging.fit ~theta:[| 5.; 5. |] ~tau2:1. ~design ~response ())

let test_gp_predict =
  Test.make ~name:"kriging/predict-40pts"
    (Staged.stage (fun () ->
         Mde.Metamodel.Kriging.predict (Lazy.force gp_fixture) [| 0.33; 0.77 |]))

let traffic_fixture =
  lazy
    (let rng = Rng.create ~seed:8 () in
     Mde.Abs.Traffic.create Mde.Abs.Traffic.default_params ~density:0.3 rng)

let test_traffic_step =
  Test.make ~name:"traffic/nasch-step-300cells"
    (Staged.stage (fun () -> Mde.Abs.Traffic.step (Lazy.force traffic_fixture)))

let plan_fixture =
  lazy
    (let rng = Rng.create ~seed:9 () in
     let cat = Catalog.create () in
     Catalog.register cat "a"
       (Table.create
          (Schema.of_list [ ("ka", Value.Tint); ("va", Value.Tfloat) ])
          (List.init 5_000 (fun i -> [| Value.Int (i mod 100); Value.Float (Rng.float rng) |])));
     Catalog.register cat "b"
       (Table.create
          (Schema.of_list [ ("kb", Value.Tint); ("vb", Value.Tfloat) ])
          (List.init 200 (fun i -> [| Value.Int (i mod 100); Value.Float (Rng.float rng) |])));
     let plan =
       Plan.select
         Expr.(col "vb" > float 0.9 && col "va" > float 0.5)
         (Plan.join ~on:[ ("ka", "kb") ] (Plan.scan "a") (Plan.scan "b"))
     in
     (cat, plan))

let test_plan_optimize =
  Test.make ~name:"plan/optimize"
    (Staged.stage (fun () ->
         let cat, plan = Lazy.force plan_fixture in
         Plan.optimize cat plan))

let test_plan_execute_optimized =
  Test.make ~name:"plan/execute-optimized"
    (Staged.stage (fun () ->
         let cat, plan = Lazy.force plan_fixture in
         Plan.execute cat (Plan.optimize cat plan)))

let test_mm1 =
  Test.make ~name:"des/mm1-2000-customers"
    (Staged.stage (fun () ->
         Mde.Des.Queueing.simulate
           { Mde.Des.Queueing.arrival_rate = 4.; service_rate = 5.; servers = 1 }
           ~customers:2_000 (Rng.create ~seed:10 ())))

(* --- the domain-parallel replication benchmark (--domains N) --- *)

module Pool = Mde.Par.Pool
module Stats = Mde.Prob.Stats

(* The SBP_DATA shape from the paper, sized so one repetition does real
   work: realize a 500-row stochastic table, then aggregate over it. *)
let replication_fixture () =
  let patients =
    Table.create
      (Schema.of_list [ ("pid", Value.Tint); ("gender", Value.Tstring) ])
      (List.init 500 (fun i ->
           [| Value.Int i; Value.String (if i mod 2 = 0 then "F" else "M") |]))
  in
  let param =
    Table.create
      (Schema.of_list [ ("mean", Value.Tfloat); ("std", Value.Tfloat) ])
      [ [| Value.Float 120.; Value.Float 15. |] ]
  in
  let st =
    Mcdb.Stochastic_table.define ~name:"SBP_DATA"
      ~schema:
        (Schema.of_list
           [ ("pid", Value.Tint); ("gender", Value.Tstring); ("sbp", Value.Tfloat) ])
      ~driver:patients ~vg:Mcdb.Vg.normal
      ~params:(fun _ -> [ param ])
      ~combine:(fun d v -> [| d.(0); d.(1); v.(0) |])
  in
  let db = Mcdb.Database.create () in
  Mcdb.Database.add_stochastic db st;
  let query catalog =
    let t = Catalog.find catalog "SBP_DATA" in
    let total = ref 0. and n = ref 0 in
    Table.iter
      (fun row ->
        total := !total +. Value.to_float row.(2);
        incr n)
      t;
    !total /. float_of_int !n
  in
  (db, query)

let bench_par_json ~reps ~domains ~pairs ~t_seq ~t_par ~ratio ~ci_lo ~ci_hi
    ~identical ~batches ~seq_batches =
  Mde_bench_emit.append ~file:"BENCH_par.json" ~name:"mcdb-replications"
    [
      ("reps", Mde_bench_emit.Int reps);
      ("domains", Int domains);
      ("pairs", Int pairs);
      ("sequential_s", Float t_seq);
      ("parallel_s", Float t_par);
      ("speedup", Float (1. /. ratio));
      ("ratio_median", Float ratio);
      ("ratio_ci95_lo", Float ci_lo);
      ("ratio_ci95_hi", Float ci_hi);
      ("identical_output", Bool identical);
      ("pool_batches", Int batches);
      ("pool_seq_batches", Int seq_batches);
    ]

(* Wall seconds of [k] alternating runs of two computations (a, b, a,
   b, ...), so a change in the machine's speed reaches both sides alike.
   Each result is identical every run by construction, so keeping the
   last is as good as any. *)
let alternating_pairs k fa fb =
  let ta = Array.make k 0. and tb = Array.make k 0. in
  let ra = ref None and rb = ref None in
  for i = 0 to k - 1 do
    let r, t = Util.timed fa in
    ra := Some r;
    ta.(i) <- t.Util.seconds;
    let r, t = Util.timed fb in
    rb := Some r;
    tb.(i) <- t.Util.seconds
  done;
  ((Option.get !ra, ta), (Option.get !rb, tb))

(* Pooled runs must cost at most this factor over sequential when the
   pool cannot help (domains = 1): the sequential fast path makes pool
   dispatch essentially free. The gate fails only when the whole 95%
   bootstrap interval of the median pool/seq ratio lies above it, so a
   few slow samples on a shared machine cannot fail a correct tree. CI
   runs this as a smoke gate. *)
let domains1_overhead_gate = 1.10

(* Alternating seq/pool pairs per run: odd, so the median ratio is one
   pair's ratio and its reciprocal is the median speedup. *)
let par_pairs = 21

let run_parallel ?(reps = 400) ~domains () =
  Util.section "PAR"
    (Printf.sprintf "domain-parallel Monte Carlo replications (%d domains)" domains);
  let db, query = replication_fixture () in
  let seed = 42 in
  let run ?pool () =
    Mcdb.Database.monte_carlo ?pool db (Rng.create ~seed ()) ~reps ~query
  in
  (* A persistent shared pool: spawned once, reused across every timed
     run — the per-call domain spawn was most of the old slowdown. *)
  let pool = Pool.shared ~domains () in
  (* Warm-up trains the adaptive chunk estimator and faults in both
     paths before anything is timed. *)
  ignore (run ~pool ());
  ignore (run ());
  Gc.compact ();
  let stats0 = Pool.stats pool in
  let (seq, t_seqs), (par, t_pars) =
    alternating_pairs par_pairs (fun () -> run ()) (fun () -> run ~pool ())
  in
  let stats1 = Pool.stats pool in
  let batches = stats1.Pool.batches - stats0.Pool.batches in
  let seq_batches = stats1.Pool.seq_batches - stats0.Pool.seq_batches in
  let identical = seq = par in
  let ratios = Array.map2 ( /. ) t_pars t_seqs in
  let ratio = Stats.median ratios in
  let ci_lo, ci_hi =
    Stats.bootstrap_ci ~rng:(Rng.create ~seed ()) ~statistic:Stats.median ratios 0.95
  in
  let t_seq = Stats.median t_seqs and t_par = Stats.median t_pars in
  Util.table
    [ "mode"; "median wall time"; "speedup" ]
    [
      [ "sequential"; Printf.sprintf "%.4f s" t_seq; "1.00x" ];
      [
        Printf.sprintf "%d domains" domains;
        Printf.sprintf "%.4f s" t_par;
        Printf.sprintf "%.2fx" (1. /. ratio);
      ];
    ];
  Util.note "pool/seq ratio over %d alternating pairs: median %.3f, 95%% CI [%.3f, %.3f]"
    par_pairs ratio ci_lo ci_hi;
  Util.note "output equality: %s"
    (if identical then "bit-identical (determinism contract holds)"
     else "MISMATCH — determinism contract violated");
  Util.note "pool: %d fanned-out batches, %d sequential fast-path batches" batches
    seq_batches;
  (match Pool.estimated_item_seconds pool ~site:"mcdb.monte_carlo" with
  | Some s -> Util.note "adaptive estimate: %.1f us per replication" (s *. 1e6)
  | None -> ());
  Util.note "available cores: %d" (Domain.recommended_domain_count ());
  let path =
    bench_par_json ~reps ~domains ~pairs:par_pairs ~t_seq ~t_par ~ratio ~ci_lo ~ci_hi
      ~identical ~batches ~seq_batches
  in
  Util.note "recorded in %s" path;
  if not identical then exit 1;
  if domains = 1 && ci_lo > domains1_overhead_gate then begin
    Util.note
      "FAIL: domains=1 pool overhead: the 95%% CI of the median ratio [%.3f, %.3f] lies \
       above the %.2f gate"
      ci_lo ci_hi domains1_overhead_gate;
    exit 1
  end

let tests =
  [
    test_bundle_query;
    test_naive_query;
    test_hash_join;
    test_thomas;
    test_dsgd_subepochs;
    test_wildfire_step;
    test_gp_predict;
    test_traffic_step;
    test_plan_optimize;
    test_plan_execute_optimized;
    test_mm1;
  ]

let pretty_ns ns =
  if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let pretty_words w =
  if w > 1e6 then Printf.sprintf "%.2f Mw" (w /. 1e6)
  else if w > 1e3 then Printf.sprintf "%.1f kw" (w /. 1e3)
  else Printf.sprintf "%.0f w" w

let run () =
  Util.section "PERF"
    "Bechamel microbenchmarks (monotonic clock ns/run; minor+major GC words/run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock; minor_allocated; major_allocated ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"perf" tests) in
  let analyze instance = Analyze.all ols instance raw in
  let time_results = analyze (List.nth instances 0) in
  let minor_results = analyze (List.nth instances 1) in
  let major_results = analyze (List.nth instances 2) in
  let estimate table name =
    match Hashtbl.find_opt table name with
    | Some r -> (
      match Analyze.OLS.estimates r with Some [ v ] -> Some v | Some _ | None -> None)
    | None -> None
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name _ ->
      match estimate time_results name with
      | Some ns ->
        rows :=
          (name, ns, estimate minor_results name, estimate major_results name)
          :: !rows
      | None -> ())
    time_results;
  let rows =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b) !rows
  in
  Util.table
    [ "benchmark"; "time/run"; "minor alloc/run"; "major alloc/run" ]
    (List.map
       (fun (name, ns, minor, major) ->
         let words = function Some w -> pretty_words w | None -> "-" in
         [ name; pretty_ns ns; words minor; words major ])
       rows)
