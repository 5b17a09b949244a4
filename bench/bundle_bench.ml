(* The --bundle experiment: the columnar tuple-bundle engine against the
   naive MCDB path on one plan, recorded in bench/BENCH_bundle.json.

   One SBP-style stochastic table ([rows] driver rows), one fixed plan
   (uncertain-float predicate, derived risk column, Avg/Max/Count
   aggregates), two executions of the identical query:

   - naive: one realized instance per repetition
     ([Stochastic_table.instantiate_many]), the plan run once per
     instance through [Algebra] — MCDB's "run the query once per database
     instance" baseline and the reference semantics;
   - bundle: one [Bundle.of_stochastic_table] sweep, then [Bundle.query].

   Construction is timed apart from query execution, every timing carries
   its allocation delta, and builds and queries keep their best of three
   runs. The run fails unless both paths give bit-identical samples, the
   bundle query clears 3x the naive query's throughput and 5x less
   allocation, and building the bundle is no slower than realizing its
   instances one by one. *)

open Mde.Relational
module Mcdb = Mde.Mcdb
module Bundle = Mcdb.Bundle
module Rng = Mde.Prob.Rng

(* The demo SBP table at benchmark scale: [rows] patients, each drawing
   sbp ~ Normal(120, 15) — row-stable, so the bundle path applies. *)
let sbp_table rows =
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
  Mcdb.Stochastic_table.define ~name:"SBP_DATA"
    ~schema:
      (Schema.of_list
         [ ("pid", Value.Tint); ("gender", Value.Tstring); ("sbp", Value.Tfloat) ])
    ~driver:patients ~vg:Mcdb.Vg.normal
    ~params:(fun _ -> [ param ])
    ~combine:(fun d v -> [| d.(0); d.(1); v.(0) |])

(* Uncertain predicate + derived column + three aggregates: every kernel
   class (comparison, arithmetic, Avg/Max/Count) is on the timed path. *)
let where_ = Expr.(col "sbp" > float 100.)
let derive = [ ("risk", Value.Tfloat, Expr.((col "sbp" - float 120.) / float 15.)) ]

let aggs =
  [
    ("mean_sbp", Aggregate.Avg (Expr.col "sbp"));
    ("max_risk", Aggregate.Max (Expr.col "risk"));
    ("n", Aggregate.Count);
  ]

let plan = { Bundle.where_ = Some where_; derive; group_keys = []; aggs }

(* Per-instance plan execution — the query the naive path repeats. The
   global group row is read back in [Bundle.aggregate]'s float
   conventions (Count as float, empty-group Avg/Min/Max as nan). *)
let naive_instance table =
  let out =
    Algebra.group_by ~keys:[] ~aggs
      (Algebra.extend derive (Algebra.select where_ table))
  in
  let row = (Table.rows out).(0) in
  Array.mapi
    (fun j _ -> match row.(j) with Value.Null -> nan | v -> Value.to_float v)
    (Array.of_list aggs)

let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [query] returns the single global group; index result as (agg, rep). *)
let samples_of_query = function
  | [ (_, per_agg) ] -> per_agg
  | results ->
    invalid_arg
      (Printf.sprintf "bundle bench: expected one global group, got %d"
         (List.length results))

let identical ~reps naive kernel =
  let ok = ref true in
  for j = 0 to List.length aggs - 1 do
    for r = 0 to reps - 1 do
      if not (float_eq naive.(r).(j) kernel.(j).(r)) then ok := false
    done
  done;
  !ok

let best_of_3 f =
  let out, a = Util.timed f in
  let _, b = Util.timed f in
  let _, c = Util.timed f in
  (out, Util.min_timing a (Util.min_timing b c))

let run ?(rows = 2000) ?(reps = 200) ?(seed = 42) () =
  Util.section "BUNDLE"
    (Printf.sprintf "columnar tuple-bundle engine, %d rows x %d reps" rows reps);
  let st = sbp_table rows in
  let cells = rows * reps in
  (* One untimed build of each warms both paths (the driver's cached
     columns, the allocator's free lists) and gives the query stage its
     inputs. Then the two builds alternate, three timed rounds with the
     middle one in the other order, so drift in the machine's speed
     reaches both best times alike. Each is timed from a collected heap:
     neither then pays the major-GC work the other's garbage left behind
     (the naive build leaves [reps] instances of it). *)
  let build_naive () = Mcdb.Stochastic_table.instantiate_many st (Rng.create ~seed ()) reps in
  let build_bundle () = Bundle.of_stochastic_table st (Rng.create ~seed ()) ~n_reps:reps in
  let instances = build_naive () and bundle = build_bundle () in
  let timed_build f =
    Gc.full_major ();
    snd (Util.timed f)
  in
  let round naive_first =
    if naive_first then
      let n = timed_build build_naive in
      (n, timed_build build_bundle)
    else
      let b = timed_build build_bundle in
      (timed_build build_naive, b)
  in
  let naive_build, bundle_build =
    List.fold_left
      (fun (n, b) naive_first ->
        let n', b' = round naive_first in
        (Util.min_timing n n', Util.min_timing b b'))
      (round true) [ false; true ]
  in
  let naive_samples, naive_query =
    best_of_3 (fun () -> Array.map naive_instance instances)
  in
  let kernel_samples, kernel_query =
    best_of_3 (fun () -> samples_of_query (Bundle.query bundle plan))
  in
  let identical = identical ~reps naive_samples kernel_samples in
  let cells_per_second (t : Util.timing) =
    if t.seconds > 0. then float_of_int cells /. t.seconds else infinity
  in
  let speedup = cells_per_second kernel_query /. cells_per_second naive_query in
  let build_speedup =
    if bundle_build.seconds > 0. then naive_build.seconds /. bundle_build.seconds else infinity
  in
  let alloc =
    if kernel_query.alloc_bytes > 0. then
      naive_query.alloc_bytes /. kernel_query.alloc_bytes
    else infinity
  in
  let row label (t : Util.timing) =
    Printf.printf "  %-14s %10.4f s  %12.3g cells/s  %14.3g bytes\n" label t.seconds
      (cells_per_second t) t.alloc_bytes
  in
  Printf.printf "  %d rows x %d reps = %d cells\n\n" rows reps cells;
  Printf.printf "  %-14s %12s  %14s  %14s\n" "phase" "wall" "throughput" "allocated";
  row "naive build" naive_build;
  row "naive query" naive_query;
  row "bundle build" bundle_build;
  row "bundle query" kernel_query;
  Printf.printf "\n  bundle vs naive query: %.1fx throughput, %.1fx less allocation\n"
    speedup alloc;
  Printf.printf "  bundle vs naive build: %.2fx\n" build_speedup;
  Printf.printf "  outputs bit-identical across both paths: %b\n" identical;
  let path =
    let open Mde_bench_emit in
    append ~file:"BENCH_bundle.json" ~name:"bundle-kernel"
      [
        ("rows", Int rows);
        ("reps", Int reps);
        ("cells", Int cells);
        ("seed", Int seed);
        ("naive_build_s", Float naive_build.seconds);
        ("naive_build_alloc_bytes", Float naive_build.alloc_bytes);
        ("naive_query_s", Float naive_query.seconds);
        ("naive_query_alloc_bytes", Float naive_query.alloc_bytes);
        ("naive_query_cells_per_s", Float (cells_per_second naive_query));
        ("bundle_build_s", Float bundle_build.seconds);
        ("bundle_build_alloc_bytes", Float bundle_build.alloc_bytes);
        ("bundle_build_speedup_vs_naive", Float build_speedup);
        ("kernel_query_s", Float kernel_query.seconds);
        ("kernel_query_alloc_bytes", Float kernel_query.alloc_bytes);
        ("kernel_query_cells_per_s", Float (cells_per_second kernel_query));
        ("kernel_speedup_vs_naive", Float speedup);
        ("kernel_alloc_reduction_vs_naive", Float alloc);
        ("identical_output", Bool identical);
      ]
  in
  Util.note "recorded in %s" path;
  if not identical then begin
    Util.note "FAIL: the bundle and naive paths disagree";
    exit 1
  end;
  if speedup < 3. then begin
    Util.note "FAIL: bundle speedup %.1fx below the 3x acceptance floor" speedup;
    exit 1
  end;
  if alloc < 5. then begin
    Util.note "FAIL: allocation reduction %.1fx below the 5x acceptance floor" alloc;
    exit 1
  end;
  if build_speedup < 1. then begin
    Util.note "FAIL: bundle build %.2fx the naive build's speed, below the 1x floor"
      build_speedup;
    exit 1
  end
