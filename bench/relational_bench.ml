(* The --relational experiment: the columnar relational engine against row
   [Algebra], recorded in bench/BENCH_relational.json.

   Three stages, each checked bit for bit against [Algebra] — the reference
   semantics — on the same rows:

   - pipeline: one randomized measurement table (float key, small int
     group, float value) through select -> extend -> group_by (conjunctive
     predicate, derived risk column, Count/Sum/Avg/Max), each stage timed
     with its allocation delta;
   - keyed: group_by / equi_join / distinct / order_by over a star-shaped
     table (dictionary-coded string dimension key + small int bucket),
     whose composite key packs into one Keycode word per row, and a
     lopsided equi_join whose left side is 1/50 of the fact table; with
     [domains] > 1 the operators that take a pool also run pooled;
   - plan: a 3-way star join through [Plan.execute] and on into
     [Columnar.of_table], the analytic query's shape (catalog scans enter
     as cached column images, the result leaves as a column-backed
     table), against [Plan.execute_rows] over [Algebra]; then the same
     query written dimensions first and run through [Plan.optimize],
     which puts the fact table on the probe side of both joins (timed,
     held to bit identity with no floor).

   Every measurement starts on a settled heap and keeps its best of two
   runs. The run fails on any bit-identity miss or when a gated speedup
   over [Algebra] falls below its floor. *)

open Mde.Relational
module Rng = Mde.Prob.Rng

type timing = Util.timing = { seconds : float; alloc_bytes : float }

(* Floors on columnar-over-Algebra throughput, each below the lowest
   ratio seen in twenty runs of [--relational 20000 2] (ten per build
   profile); the ratios come from one machine, so the margin absorbs
   another machine's different balance of allocation and compute. *)
let pipeline_floor = 2.
let group_floor = 2.5
let join_floor = 1.8
let distinct_floor = 1.8
let order_floor = 2.5

(* Below the lowest ratio seen in ten runs of [--relational 20000 2]
   (five per build profile; 2.1-8.8x, and 1.5x in earlier noisy runs).
   Building the join result as boxed rows and re-columnarizing it ran
   at 0.5-0.8x, so the floor still catches a return to that. *)
let plan_floor = 1.2

(* Best of two after a full major GC: single-shot timings at smoke row
   counts are dominated by GC debt and scheduling noise, and whichever
   variant runs first would otherwise absorb the major-GC debt of
   building the inputs. *)
let settled f =
  Gc.full_major ();
  let out, a = Util.timed f in
  let _, b = Util.timed f in
  (out, Util.min_timing a b)

(* Every timed columnar closure ends in [forced]: operator outputs are
   views whose columns are gathered on first read, while the row
   [Algebra] baselines build every output cell inside their timers. *)
let forced c =
  Array.iter (fun col -> ignore (Column.view col)) (Table.columns (Columnar.to_table c));
  c

let value_identical a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

let tables_identical a b =
  Table.cardinality a = Table.cardinality b
  && Array.for_all2
       (fun ra rb -> Array.for_all2 value_identical ra rb)
       (Table.rows a) (Table.rows b)

let ratio slow fast = if fast > 0. then slow /. fast else infinity

(* --- pipeline ------------------------------------------------------- *)

(* Monte Carlo-shaped input: a float auxiliary key, a small int grouping
   column, a float measurement. *)
let make_table ~rows ~seed =
  let rng = Rng.create ~seed () in
  let schema =
    Schema.of_list [ ("k", Value.Tfloat); ("g", Value.Tint); ("v", Value.Tfloat) ]
  in
  Table.create schema
    (List.init rows (fun _ ->
         [|
           Value.Float (Rng.float_range rng 0. 8.);
           Value.Int (Rng.int rng 16);
           Value.Float (Rng.float_range rng (-1.) 1.);
         |]))

(* Predicate + derived column + four aggregates: every kernel class
   (comparison, conjunction, arithmetic, Count/Sum/Avg/Max) is on the
   timed path. *)
let pred = Expr.(col "v" > float (-0.5) && col "k" < float 6.)

let defs =
  [ ("risk", Value.Tfloat, Expr.(((col "v" - float 0.1) * float 2.) + col "k")) ]

let keys = [ "g" ]

let aggs =
  [
    ("n", Algebra.Count);
    ("total", Algebra.Sum (Expr.col "v"));
    ("mean_risk", Algebra.Avg (Expr.col "risk"));
    ("max_risk", Algebra.Max (Expr.col "risk"));
  ]

type path = { select_t : timing; extend_t : timing; group_t : timing }

let run_rows table =
  let selected, select_t = settled (fun () -> Algebra.select pred table) in
  let extended, extend_t = settled (fun () -> Algebra.extend defs selected) in
  let grouped, group_t = settled (fun () -> Algebra.group_by ~keys ~aggs extended) in
  (grouped, { select_t; extend_t; group_t })

let run_columnar ?pool c =
  let selected, select_t = settled (fun () -> forced (Columnar.select ?pool pred c)) in
  let extended, extend_t =
    settled (fun () -> forced (Columnar.extend ?pool defs selected))
  in
  let grouped, group_t =
    settled (fun () -> forced (Columnar.group_by ~keys ~aggs extended))
  in
  (Columnar.to_table grouped, { select_t; extend_t; group_t })

let total p = p.select_t.seconds +. p.extend_t.seconds +. p.group_t.seconds
let total_alloc p = p.select_t.alloc_bytes +. p.extend_t.alloc_bytes +. p.group_t.alloc_bytes

let pipeline ?pool ~domains ~rows ~seed () =
  let table = make_table ~rows ~seed in
  let c = Columnar.of_table table in
  (* One untimed pooled pass first: it trains the pool's per-site
     crossover estimates, so the timed stages measure steady state rather
     than cold fan-out on work too small to split. *)
  if pool <> None then ignore (run_columnar ?pool c);
  let row_out, row_path = run_rows table in
  let kernel_out, kernel_path = run_columnar ?pool c in
  let identical = tables_identical row_out kernel_out in
  let rows_per_second p = ratio (float_of_int rows) (total p) in
  let speedup = ratio (total row_path) (total kernel_path) in
  let alloc = ratio (total_alloc row_path) (total_alloc kernel_path) in
  let line label p =
    Printf.printf "  %-12s %10.4f s  %12.3g rows/s  %14.3g bytes\n" label (total p)
      (rows_per_second p) (total_alloc p)
  in
  Printf.printf "  select -> extend -> group_by over %d rows\n\n" rows;
  Printf.printf "  %-12s %12s  %14s  %14s\n" "engine" "wall" "throughput" "allocated";
  line "row algebra" row_path;
  line "columnar" kernel_path;
  Printf.printf "\n  columnar vs row algebra: %.1fx throughput, %.1fx less allocation\n"
    speedup alloc;
  Printf.printf "  outputs bit-identical: %b\n" identical;
  let path_fields prefix p =
    Mde_bench_emit.
      [
        (prefix ^ "_select_s", Float p.select_t.seconds);
        (prefix ^ "_extend_s", Float p.extend_t.seconds);
        (prefix ^ "_group_s", Float p.group_t.seconds);
        (prefix ^ "_total_s", Float (total p));
        (prefix ^ "_alloc_bytes", Float (total_alloc p));
        (prefix ^ "_rows_per_s", Float (rows_per_second p));
      ]
  in
  let path =
    Mde_bench_emit.(
      append ~file:"BENCH_relational.json" ~name:"relational-columnar"
        ([ ("rows", Int rows); ("seed", Int seed); ("domains", Int domains) ]
        @ path_fields "row" row_path
        @ path_fields "kernel" kernel_path
        @ [
            ("kernel_speedup_vs_rows", Float speedup);
            ("kernel_alloc_reduction_vs_rows", Float alloc);
            ("identical_output", Bool identical);
          ]))
  in
  Util.note "recorded in %s" path;
  if not identical then begin
    Util.note "FAIL: the columnar pipeline disagrees with row algebra";
    exit 1
  end;
  if speedup < pipeline_floor then begin
    Util.note "FAIL: columnar pipeline speedup %.1fx below the %.1fx floor" speedup
      pipeline_floor;
    exit 1
  end

(* --- keyed operators ------------------------------------------------ *)

(* A star-shaped input: a dictionary-coded string dimension key plus a
   small int bucket on the fact side, and a dimension table keyed by the
   same composite (sku, g) pair. The dimension covers every other sku, so
   the join probes every fact row but emits only about half of them — the
   selective shape where probe cost, not output materialization, is the
   operator. A third table, 1/50 of the fact table's rows, draws
   (psku, pg) keys from the same space: joined as the left side against
   the fact table, each of its rows meets many duplicate fact keys, and
   the join hashes the small side. *)
let make_keyed_tables ~rows ~seed =
  let rng = Rng.create ~seed () in
  let dims = max 16 (rows / 1000) in
  let buckets = 16 in
  let dim_name i = Printf.sprintf "sku-%04d" i in
  let fact =
    Table.create
      (Schema.of_list [ ("sku", Value.Tstring); ("g", Value.Tint); ("v", Value.Tfloat) ])
      (List.init rows (fun _ ->
           [|
             Value.String (dim_name (Rng.int rng dims));
             Value.Int (Rng.int rng buckets);
             Value.Float (Rng.float_range rng (-1.) 1.);
           |]))
  in
  let dim =
    Table.create
      (Schema.of_list
         [ ("dsku", Value.Tstring); ("dg", Value.Tint); ("weight", Value.Tfloat) ])
      (List.init (dims * buckets / 2) (fun i ->
           [|
             Value.String (dim_name (2 * (i / buckets)));
             Value.Int (i mod buckets);
             Value.Float (Rng.float_range rng 0. 2.);
           |]))
  in
  let probe =
    Table.create
      (Schema.of_list [ ("psku", Value.Tstring); ("pg", Value.Tint); ("pw", Value.Tfloat) ])
      (List.init (max 1 (rows / 50)) (fun _ ->
           [|
             Value.String (dim_name (Rng.int rng dims));
             Value.Int (Rng.int rng buckets);
             Value.Float (Rng.float_range rng 0. 2.);
           |]))
  in
  (fact, dim, probe)

let lopsided_on = [ ("psku", "sku"); ("pg", "g") ]

let join_on = [ ("sku", "dsku"); ("g", "dg") ]
let keyed_keys = [ "sku"; "g" ]
let keyed_aggs = [ ("n", Algebra.Count); ("total", Algebra.Sum (Expr.col "v")) ]

type keyed_op = {
  name : string;
  floor : float;
  packed_t : timing;
  rows_t : timing;  (** row [Algebra] on the same rows *)
  pooled_t : timing option;  (** [None] without a pool or a pooled form *)
  ok : bool;  (** packed == Algebra (== pooled), bit for bit *)
}

let keyed ?pool ~domains ~rows ~seed () =
  let fact_t, dim_t, probe_t = make_keyed_tables ~rows ~seed in
  let keys_t = Algebra.project keyed_keys fact_t in
  let fact = Columnar.of_table fact_t and dim = Columnar.of_table dim_t in
  let probe = Columnar.of_table probe_t in
  let keys_only = Columnar.of_table keys_t in
  let measure ~name ~floor ?pooled packed_f rows_f =
    let packed_out, packed_t = settled (fun () -> forced (packed_f ())) in
    let packed_out = Columnar.to_table packed_out in
    let rows_out, rows_t = settled rows_f in
    let pooled_t, pooled_ok =
      match (pool, pooled) with
      | Some p, Some f ->
        let out, t = settled (fun () -> forced (f p)) in
        (Some t, tables_identical (Columnar.to_table out) packed_out)
      | _ -> (None, true)
    in
    let ok = tables_identical packed_out rows_out && pooled_ok in
    { name; floor; packed_t; rows_t; pooled_t; ok }
  in
  let ops =
    [
      measure ~name:"group" ~floor:group_floor
        ~pooled:(fun p -> Columnar.group_by ~pool:p ~keys:keyed_keys ~aggs:keyed_aggs fact)
        (fun () -> Columnar.group_by ~keys:keyed_keys ~aggs:keyed_aggs fact)
        (fun () -> Algebra.group_by ~keys:keyed_keys ~aggs:keyed_aggs fact_t);
      measure ~name:"join" ~floor:join_floor
        ~pooled:(fun p -> Columnar.equi_join ~pool:p ~on:join_on fact dim)
        (fun () -> Columnar.equi_join ~on:join_on fact dim)
        (fun () -> Algebra.equi_join ~on:join_on fact_t dim_t);
      (* Recorded and held to bit identity, with no speed floor. *)
      measure ~name:"join_lopsided" ~floor:0.
        ~pooled:(fun p -> Columnar.equi_join ~pool:p ~on:lopsided_on probe fact)
        (fun () -> Columnar.equi_join ~on:lopsided_on probe fact)
        (fun () -> Algebra.equi_join ~on:lopsided_on probe_t fact_t);
      measure ~name:"distinct" ~floor:distinct_floor
        ~pooled:(fun p -> Columnar.distinct ~pool:p keys_only)
        (fun () -> Columnar.distinct keys_only)
        (fun () -> Algebra.distinct keys_t);
      measure ~name:"order" ~floor:order_floor
        (fun () -> Columnar.order_by keyed_keys fact)
        (fun () -> Algebra.order_by keyed_keys fact_t);
    ]
  in
  let speedup op = ratio op.rows_t.seconds op.packed_t.seconds in
  let alloc op = ratio op.rows_t.alloc_bytes op.packed_t.alloc_bytes in
  Printf.printf "\n  packed keyed operators vs row algebra over %d rows\n\n" rows;
  Printf.printf "  %-14s %12s %12s %12s  %8s %10s\n" "operator" "packed" "algebra"
    "pooled" "speedup" "alloc red.";
  List.iter
    (fun op ->
      let pooled =
        match op.pooled_t with
        | Some t -> Printf.sprintf "%10.4f s" t.seconds
        | None -> "         --"
      in
      Printf.printf "  %-14s %10.4f s %10.4f s %12s  %7.1fx %9.1fx\n" op.name
        op.packed_t.seconds op.rows_t.seconds pooled (speedup op) (alloc op))
    ops;
  let identical = List.for_all (fun op -> op.ok) ops in
  Printf.printf "\n  outputs bit-identical across packed/algebra/pooled paths: %b\n"
    identical;
  let op_fields op =
    Mde_bench_emit.(
      [
        (op.name ^ "_packed_s", Float op.packed_t.seconds);
        (op.name ^ "_rows_s", Float op.rows_t.seconds);
        (op.name ^ "_packed_alloc_bytes", Float op.packed_t.alloc_bytes);
        (op.name ^ "_rows_alloc_bytes", Float op.rows_t.alloc_bytes);
        (op.name ^ "_speedup_vs_rows", Float (speedup op));
        (op.name ^ "_alloc_reduction_vs_rows", Float (alloc op));
      ]
      @
      match op.pooled_t with
      | Some t -> [ (op.name ^ "_pooled_s", Float t.seconds) ]
      | None -> [])
  in
  let path =
    Mde_bench_emit.(
      append ~file:"BENCH_relational.json" ~name:"relational-keycode"
        ([ ("rows", Int rows); ("seed", Int seed); ("domains", Int domains) ]
        @ List.concat_map op_fields ops
        @ [ ("identical_output", Bool identical) ]))
  in
  Util.note "recorded in %s" path;
  if not identical then begin
    Util.note "FAIL: packed keyed operators disagree with row algebra";
    exit 1
  end;
  List.iter
    (fun op ->
      if speedup op < op.floor then begin
        Util.note "FAIL: packed %s speedup %.1fx below the %.1fx floor" op.name
          (speedup op) op.floor;
        exit 1
      end)
    ops

(* --- plan ----------------------------------------------------------- *)

(* A star catalog: a fact table of [rows] rows keyed into a customer
   dimension, itself keyed into a region dimension. *)
let make_plan_catalog ~rows ~seed =
  let rng = Rng.create ~seed () in
  let custs = max 16 (rows / 20) and regions = 16 in
  let cat = Catalog.create () in
  Catalog.register cat "facts"
    (Table.create
       (Schema.of_list
          [ ("fid", Value.Tint); ("fcust", Value.Tint); ("amount", Value.Tfloat) ])
       (List.init rows (fun i ->
            [| Value.Int i; Value.Int (Rng.int rng custs); Value.Float (Rng.float rng) |])));
  Catalog.register cat "custs"
    (Table.create
       (Schema.of_list [ ("cid", Value.Tint); ("creg", Value.Tint); ("tier", Value.Tstring) ])
       (List.init custs (fun i ->
            [| Value.Int i; Value.Int (Rng.int rng regions);
               Value.String (Printf.sprintf "tier-%d" (Rng.int rng 4)) |])));
  Catalog.register cat "regions"
    (Table.create
       (Schema.of_list [ ("rid", Value.Tint); ("rname", Value.Tstring) ])
       (List.init regions (fun i ->
            [| Value.Int i; Value.String (Printf.sprintf "r%02d" i) |])));
  cat

let plan_query =
  Plan.join ~on:[ ("fcust", "cid") ]
    (Plan.select Expr.(col "amount" > float 0.25) (Plan.scan "facts"))
    (Plan.join ~on:[ ("creg", "rid") ] (Plan.scan "custs") (Plan.scan "regions"))

(* The same query written dimensions first, for [Plan.optimize] to
   orient: the fact table becomes the left (probe) input of both joins,
   and each of its rows matches once, so neither join builds a left
   index. *)
let dims_first_query =
  Plan.join ~on:[ ("cid", "fcust") ]
    (Plan.join ~on:[ ("rid", "creg") ] (Plan.scan "regions") (Plan.scan "custs"))
    (Plan.select Expr.(col "amount" > float 0.25) (Plan.scan "facts"))

let plan_stage ?pool ~domains ~rows ~seed () =
  let cat = make_plan_catalog ~rows ~seed in
  (* One untimed run first: as in a long-lived catalog, the scans then
     read each table's cached column image. *)
  ignore (Plan.execute ?pool cat plan_query);
  let columnar, columnar_t =
    settled (fun () -> forced (Columnar.of_table (Plan.execute ?pool cat plan_query)))
  in
  let rows_out, rows_t = settled (fun () -> Plan.execute_rows cat plan_query) in
  let identical = tables_identical (Columnar.to_table columnar) rows_out in
  let optimized = Plan.optimize cat dims_first_query in
  let opt_columnar, opt_t =
    settled (fun () -> forced (Columnar.of_table (Plan.execute ?pool cat optimized)))
  in
  let opt_identical =
    tables_identical (Columnar.to_table opt_columnar) (Plan.execute_rows cat optimized)
  in
  let speedup = ratio rows_t.seconds columnar_t.seconds in
  let alloc = ratio rows_t.alloc_bytes columnar_t.alloc_bytes in
  Printf.printf "\n  3-way join plan over %d fact rows -> %d result rows\n\n" rows
    (Table.cardinality rows_out);
  Printf.printf "  %-28s %10.4f s  %14.3g bytes\n" "Plan.execute + of_table" columnar_t.seconds
    columnar_t.alloc_bytes;
  Printf.printf "  %-28s %10.4f s  %14.3g bytes\n" "Plan.execute_rows (Algebra)" rows_t.seconds
    rows_t.alloc_bytes;
  Printf.printf "\n  columnar plan vs row algebra: %.1fx throughput, %.1fx less allocation\n"
    speedup alloc;
  Printf.printf "  outputs bit-identical: %b\n" identical;
  Printf.printf "\n  dimensions first, through Plan.optimize -> %d result rows\n\n"
    (Columnar.row_count opt_columnar);
  Printf.printf "  %-28s %10.4f s  %14.3g bytes\n" "optimized Plan.execute" opt_t.seconds
    opt_t.alloc_bytes;
  Printf.printf "  optimized outputs bit-identical to its execute_rows: %b\n" opt_identical;
  let path =
    Mde_bench_emit.(
      append ~file:"BENCH_relational.json" ~name:"relational-plan"
        [
          ("rows", Int rows);
          ("seed", Int seed);
          ("domains", Int domains);
          ("result_rows", Int (Table.cardinality rows_out));
          ("plan_columnar_s", Float columnar_t.seconds);
          ("plan_rows_s", Float rows_t.seconds);
          ("plan_columnar_alloc_bytes", Float columnar_t.alloc_bytes);
          ("plan_rows_alloc_bytes", Float rows_t.alloc_bytes);
          ("plan_speedup_vs_rows", Float speedup);
          ("plan_alloc_reduction_vs_rows", Float alloc);
          ("identical_output", Bool identical);
          ("optimized_result_rows", Int (Columnar.row_count opt_columnar));
          ("plan_optimized_columnar_s", Float opt_t.seconds);
          ("plan_optimized_columnar_alloc_bytes", Float opt_t.alloc_bytes);
          ("optimized_identical_output", Bool opt_identical);
        ])
  in
  Util.note "recorded in %s" path;
  if not identical then begin
    Util.note "FAIL: the columnar plan executor disagrees with row algebra";
    exit 1
  end;
  if not opt_identical then begin
    Util.note "FAIL: the optimized dimensions-first plan disagrees with its row execution";
    exit 1
  end;
  if speedup < plan_floor then begin
    Util.note "FAIL: columnar plan speedup %.1fx below the %.1fx floor" speedup plan_floor;
    exit 1
  end

(* --- star ----------------------------------------------------------- *)

(* The perfbench analytic query's shape at [rows] fact rows: a fact
   table joined to a store dimension on a (string, int) key and to a
   day dimension on an int key, both predicates pushed down by
   [Plan.optimize], then a (string, int) group. *)
let star_catalog ~rows ~seed =
  let rng = Rng.create ~seed () in
  let regions = [| "north"; "south"; "east"; "west"; "central"; "coast"; "hills"; "plains" |] in
  let cat = Catalog.create () in
  Catalog.register cat "sales"
    (Table.create
       (Schema.of_list
          [ ("region", Value.Tstring); ("store", Value.Tint); ("day", Value.Tint);
            ("amount", Value.Tfloat); ("qty", Value.Tint) ])
       (List.init rows (fun _ ->
            [| Value.String regions.(Rng.int rng 8); Value.Int (Rng.int rng 50);
               Value.Int (Rng.int rng 365); Value.Float (Rng.float_range rng 0. 1000.);
               Value.Int (1 + Rng.int rng 9) |])));
  Catalog.register cat "stores"
    (Table.create
       (Schema.of_list
          [ ("s_region", Value.Tstring); ("s_store", Value.Tint); ("city", Value.Tstring);
            ("size", Value.Tint) ])
       (List.concat_map
          (fun region ->
            List.init 50 (fun s ->
                [| Value.String region; Value.Int s;
                   Value.String (Printf.sprintf "city%02d" (Rng.int rng 24));
                   Value.Int (1 + Rng.int rng 5) |]))
          (Array.to_list regions)));
  Catalog.register cat "days"
    (Table.create
       (Schema.of_list [ ("d_day", Value.Tint); ("month", Value.Tint) ])
       (List.init 365 (fun d -> [| Value.Int d; Value.Int (1 + (d / 31)) |])));
  cat

let star_query =
  Plan.select
    Expr.(col "amount" >= float 500. && col "size" >= int 2)
    (Plan.join ~on:[ ("day", "d_day") ]
       (Plan.join
          ~on:[ ("region", "s_region"); ("store", "s_store") ]
          (Plan.scan "sales") (Plan.scan "stores"))
       (Plan.scan "days"))

let star_keys = [ "city"; "month" ]

let star_aggs =
  [ ("revenue", Aggregate.Sum (Expr.col "amount")); ("orders", Aggregate.Count);
    ("avg_qty", Aggregate.Avg (Expr.col "qty")) ]

(* Major-heap words of one call, between two minor collections: what a
   full-length intermediate array costs. *)
let major_words f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  (Gc.quick_stat ()).Gc.major_words -. before

let star_stage ?pool ~domains ~rows ~seed () =
  let cat = star_catalog ~rows ~seed in
  let plan = Plan.optimize cat star_query in
  let columnar () =
    Columnar.group_by ?pool ~keys:star_keys ~aggs:star_aggs
      (Columnar.of_table (Plan.execute ?pool cat plan))
  in
  ignore (columnar ());
  let out, columnar_t = settled (fun () -> forced (columnar ())) in
  let words = major_words columnar in
  let expect, rows_t =
    settled (fun () -> Algebra.group_by ~keys:star_keys ~aggs:star_aggs (Plan.execute_rows cat plan))
  in
  let identical = tables_identical (Columnar.to_table out) expect in
  let speedup = ratio rows_t.seconds columnar_t.seconds in
  Printf.printf "\n  star query over %d fact rows -> %d groups: %s\n\n" rows
    (Columnar.row_count out)
    (Format.asprintf "%a" Plan.pp plan |> String.split_on_char '\n' |> List.map String.trim
   |> String.concat " ");
  Printf.printf "  %-28s %10.4f s  %14.3g bytes  %10.0f major words
"
    "Plan.execute + group_by" columnar_t.seconds columnar_t.alloc_bytes words;
  Printf.printf "  %-28s %10.4f s  %14.3g bytes
" "execute_rows + Algebra" rows_t.seconds
    rows_t.alloc_bytes;
  Printf.printf "\n  star query vs row algebra: %.1fx throughput; outputs bit-identical: %b\n"
    speedup identical;
  let path =
    Mde_bench_emit.(
      append ~file:"BENCH_relational.json" ~name:"relational-star"
        [
          ("rows", Int rows);
          ("seed", Int seed);
          ("domains", Int domains);
          ("groups", Int (Columnar.row_count out));
          ("star_columnar_s", Float columnar_t.seconds);
          ("star_rows_s", Float rows_t.seconds);
          ("star_columnar_alloc_bytes", Float columnar_t.alloc_bytes);
          ("star_columnar_major_words", Float words);
          ("star_speedup_vs_rows", Float speedup);
          ("identical_output", Bool identical);
        ])
  in
  Util.note "recorded in %s" path;
  if not identical then begin
    Util.note "FAIL: the star query disagrees with row algebra";
    exit 1
  end

let run ?(domains = 1) ?(rows = 200_000) ?(seed = 42) () =
  Util.section "RELATIONAL"
    (Printf.sprintf "unified columnar substrate, %d rows (%d domains)" rows domains);
  (* Shared pool: domains live across runs, so spawn cost never lands
     inside a timed section. *)
  let pool = if domains > 1 then Some (Mde.Par.Pool.shared ~domains ()) else None in
  pipeline ?pool ~domains ~rows ~seed ();
  keyed ?pool ~domains ~rows ~seed ();
  plan_stage ?pool ~domains ~rows ~seed ();
  star_stage ?pool ~domains ~rows ~seed ()
