(* analytic: one caller runs relational queries back to back over a
   generated star schema. The fact table joins a store dimension on a
   composite (string, int) key and a day dimension on an int key; a
   range predicate's literal varies per query. Each query runs
   [Plan.optimize], [Plan.execute], then a composite-key
   [Columnar.group_by], [order_by] and [limit]. *)

open Mde_relational
open Measure
module Rng = Mde_prob.Rng
module Pool = Mde_par.Pool

let fact_rows = 80_000
let regions = [| "north"; "south"; "east"; "west"; "central"; "coast"; "hills"; "plains" |]
let stores_per_region = 50
let days = 365

let cities =
  Array.init 24 (fun i -> Printf.sprintf "city%02d" i)

let catalog ~seed =
  let rng = Rng.create ~seed () in
  let sales =
    Table.create
      (Schema.of_list
         [
           ("sid", Value.Tint);
           ("region", Value.Tstring);
           ("store", Value.Tint);
           ("day", Value.Tint);
           ("amount", Value.Tfloat);
           ("qty", Value.Tint);
         ])
      (List.init fact_rows (fun i ->
           [|
             Value.Int i;
             Value.String regions.(Rng.int rng (Array.length regions));
             Value.Int (Rng.int rng stores_per_region);
             Value.Int (Rng.int rng days);
             Value.Float (Rng.float_range rng 0. 1000.);
             Value.Int (1 + Rng.int rng 9);
           |]))
  in
  let stores =
    Table.create
      (Schema.of_list
         [
           ("s_region", Value.Tstring);
           ("s_store", Value.Tint);
           ("city", Value.Tstring);
           ("size", Value.Tint);
         ])
      (List.concat_map
         (fun region ->
           List.init stores_per_region (fun s ->
               [|
                 Value.String region;
                 Value.Int s;
                 Value.String cities.(Rng.int rng (Array.length cities));
                 Value.Int (1 + Rng.int rng 5);
               |]))
         (Array.to_list regions))
  in
  let day_table =
    Table.create
      (Schema.of_list [ ("d_day", Value.Tint); ("month", Value.Tint); ("weekday", Value.Tint) ])
      (List.init days (fun d -> [| Value.Int d; Value.Int (1 + (d / 31)); Value.Int (d mod 7) |]))
  in
  let c = Catalog.create () in
  Catalog.register c "sales" sales;
  Catalog.register c "stores" stores;
  Catalog.register c "days" day_table;
  c

(* Query [i]'s literal: the seed orders a grid of twelve, and queries
   cycle through that order. Every second of the window then sees the
   same mix of selectivities, so its median latency does not depend on
   which literals a seed happened to draw, and the row-algebra oracle
   runs once per literal, not once per query. *)
let literals ~seed =
  Array.map (fun k -> 300. +. (50. *. float_of_int k)) (Rng.permutation (rng_for ~seed 0) 12)

(* Written unoptimized, predicate on top, so [Plan.optimize] has real
   pushdown and join-ordering work to do. *)
let plan lit =
  Plan.select
    Expr.(col "amount" >= float lit && col "size" >= int 2)
    (Plan.join ~on:[ ("day", "d_day") ]
       (Plan.join
          ~on:[ ("region", "s_region"); ("store", "s_store") ]
          (Plan.scan "sales") (Plan.scan "stores"))
       (Plan.scan "days"))

let group_keys = [ "city"; "month" ]

let aggs =
  [
    ("revenue", Algebra.Sum (Expr.col "amount"));
    ("orders", Algebra.Count);
    ("avg_qty", Algebra.Avg (Expr.col "qty"));
  ]

let top = 50

(* The row-at-a-time reference for the whole query. *)
let oracle catalog lit =
  Plan.execute_rows catalog (Plan.optimize catalog (plan lit))
  |> Algebra.group_by ~keys:group_keys ~aggs
  |> Algebra.order_by group_keys |> Algebra.limit top

let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> same_float x y
  | _ -> Value.equal a b

let same_table a b =
  Schema.equal (Table.schema a) (Table.schema b)
  && Table.cardinality a = Table.cardinality b
  && Array.for_all2 (Array.for_all2 same_value) (Table.rows a) (Table.rows b)

(* Typed key columns of a row table, as [Keycode.of_columns] takes them. *)
let key_columns table names =
  let schema = Table.schema table in
  let rows = Table.cardinality table in
  Array.of_list
    (List.map
       (fun name ->
         let values = Table.column table name in
         Column.of_det_cells ~ty:(Schema.column_type schema name) ~rows ~reps:1 (fun i ->
             values.(i)))
       names)

(* Each (seed, literal)'s oracle result, computed once for the whole
   run: every set-up builds the same catalog from the seed. *)
let oracles = Hashtbl.create 16

let setup ~tracer ~seed =
  let pool = Pool.shared ~domains:1 () in
  let catalog = catalog ~seed in
  let run_query lit =
    let span name f = Trace.span tracer name f in
    let optimized = span "plan.optimize" (fun () -> Plan.optimize catalog (plan lit)) in
    let joined = span "plan.execute" (fun () -> Plan.execute ~pool catalog optimized) in
    let t = span "columnar.of_result" (fun () -> Columnar.of_table joined) in
    let t = span "columnar.group_by" (fun () -> Columnar.group_by ~pool ~keys:group_keys ~aggs t) in
    let t = span "columnar.order_by" (fun () -> Columnar.order_by group_keys t) in
    let result = span "columnar.limit" (fun () -> Columnar.to_table (Columnar.limit top t)) in
    (optimized, joined, result)
  in
  let literals = literals ~seed in
  let literal i = literals.(i mod Array.length literals) in
  (* warm-up: catalog statistics, code paths and the heap *)
  for i = 0 to 2 do
    ignore (run_query (literal i))
  done;
  Gc.compact ();
  let queries = ref 0 and bad = ref 0 in

  let lits = ref [] in
  let rows_in = ref 0 and rows_out = ref 0 and refusals = ref 0 in
  let pool0 = Pool.stats pool in
  let check lit result =
    let expect =
      match Hashtbl.find_opt oracles (seed, lit) with
      | Some e -> e
      | None ->
        let e = oracle catalog lit in
        Hashtbl.add oracles (seed, lit) e;
        e
    in
    if not (same_table expect result) then incr bad
  in
  (* The traced run replays the optimized plan's operators as direct
     [Columnar] calls on the same inputs (checked bit-identical to
     [Plan.execute]) and encodes the join and group keys with [Keycode],
     outside the query's own span. *)
  let replay optimized joined =
    let encode sides =
      Trace.span tracer "keycode.encode" (fun () ->
          match Keycode.of_columns sides with
          | None -> incr refusals
          | Some enc -> List.iteri (fun side _ -> ignore (Keycode.encode enc ~side)) sides)
    in
    let rec go = function
      | Plan.Scan name ->
        let t = Catalog.find catalog name in
        rows_in := !rows_in + Table.cardinality t;
        Trace.span tracer "columnar.of_table" (fun () -> Columnar.of_table t)
      | Plan.Select (p, c) ->
        let c = go c in
        Trace.span tracer "columnar.select" (fun () -> Columnar.select ~pool p c)
      | Plan.Project (cols, c) -> Columnar.project cols (go c)
      | Plan.Join (on, l, r) ->
        let l = go l and r = go r in
        let lt = Columnar.to_table l and rt = Columnar.to_table r in
        encode [ key_columns lt (List.map fst on); key_columns rt (List.map snd on) ];
        Trace.span tracer "columnar.equi_join" (fun () -> Columnar.equi_join ~pool ~on l r)
    in
    let replayed = Columnar.to_table (go optimized) in
    encode [ key_columns joined group_keys ];
    if not (same_table replayed joined) then incr bad
  in
  let step tally =
    let i = !queries in
    incr queries;
    let lit = literal i in
    Option.iter (fun tr -> Trace.set_op tr i) tracer;
    let t0 = now_ns () in
    let optimized, joined, result = Trace.span tracer "query" (fun () -> run_query lit) in
    Lat.add tally.lat (float_of_int (now_ns () - t0));
    tally.attempted <- tally.attempted + 1;
    if Trace.active tracer then begin
      rows_out := !rows_out + Table.cardinality joined;
      Trace.span tracer "replay" (fun () -> replay optimized joined);
      check lit result
    end
    else lits := (lit, result) :: !lits;
    1
  in
  let verify () =
    List.iter (fun (lit, result) -> check lit result) !lits;
    !bad
  in
  let layers () =
    let tr = Option.get tracer in
    let per_query name = ms (float_of_int (Trace.total tr name)) /. float_of_int !queries in
    let p = Pool.stats pool in
    [
      ("plan.optimize_us", us (Trace.mean_ns tr "plan.optimize"));
      ("plan.execute_ms", ms (Trace.mean_ns tr "plan.execute"));
      ("columnar.of_table_ms", per_query "columnar.of_table");
      ("columnar.select_ms", per_query "columnar.select");
      ("columnar.equi_join_ms", per_query "columnar.equi_join");
      ("columnar.group_by_ms", per_query "columnar.group_by");
      ("columnar.order_by_ms", per_query "columnar.order_by");
      ("keycode.encode_ms", per_query "keycode.encode");
      ("keycode.refusals", float_of_int !refusals);
      ("plan.rows_in", float_of_int !rows_in);
      ("plan.rows_out", float_of_int !rows_out);
      ("pool.batches", float_of_int (p.Pool.batches - pool0.Pool.batches));
      ("pool.seq_batches", float_of_int (p.Pool.seq_batches - pool0.Pool.seq_batches));
    ]
  in
  { step; verify; layers }
