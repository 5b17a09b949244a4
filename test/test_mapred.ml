module Dataset = Mde_mapred.Dataset
module Job = Mde_mapred.Job

let test_partition_roundtrip () =
  let data = Array.init 103 Fun.id in
  let ds = Dataset.of_array ~partitions:7 data in
  Alcotest.(check int) "partitions" 7 (Dataset.partition_count ds);
  Alcotest.(check int) "total" 103 (Dataset.total_length ds);
  Alcotest.(check (array int)) "roundtrip" data (Dataset.to_array ds)

let test_partition_small_input () =
  let ds = Dataset.of_array ~partitions:10 [| 1; 2; 3 |] in
  Alcotest.(check int) "capped partitions" 3 (Dataset.partition_count ds);
  let empty = Dataset.of_array ~partitions:4 ([||] : int array) in
  Alcotest.(check int) "empty ok" 0 (Dataset.total_length empty)

let test_map_preserves_structure () =
  let ds = Dataset.of_array ~partitions:3 [| 1; 2; 3; 4; 5 |] in
  let doubled = Dataset.map (fun x -> x * 2) ds in
  Alcotest.(check int) "same partitions" 3 (Dataset.partition_count doubled);
  Alcotest.(check (array int)) "values" [| 2; 4; 6; 8; 10 |] (Dataset.to_array doubled)

let test_mapi_global_index () =
  let ds = Dataset.of_array ~partitions:4 (Array.make 10 'x') in
  let indexed = Dataset.mapi (fun i _ -> i) ds in
  Alcotest.(check (array int)) "indices" (Array.init 10 Fun.id) (Dataset.to_array indexed)

let test_filter_fold () =
  let ds = Dataset.of_array ~partitions:4 (Array.init 20 Fun.id) in
  let evens = Dataset.filter (fun x -> x mod 2 = 0) ds in
  Alcotest.(check int) "evens" 10 (Dataset.total_length evens);
  Alcotest.(check int) "sum" 90 (Dataset.fold ( + ) 0 evens)

let test_of_partitions_copies () =
  let source = [| [| 1; 2 |]; [| 3 |] |] in
  let ds = Dataset.of_partitions source in
  source.(0).(0) <- 99;
  Alcotest.(check (array int)) "defensive copy" [| 1; 2; 3 |] (Dataset.to_array ds)

let test_word_count () =
  let words =
    [| "the"; "quick"; "fox"; "the"; "lazy"; "dog"; "the"; "fox" |]
  in
  let ds = Dataset.of_array ~partitions:3 words in
  let result, stats =
    Job.map_reduce
      ~map:(fun w -> [ (w, 1) ])
      ~reduce:(fun w counts -> [ (w, List.fold_left ( + ) 0 counts) ])
      ds
  in
  let counts = Dataset.to_array result in
  let find w = snd (Array.get (Array.of_list (List.filter (fun (k, _) -> k = w) (Array.to_list counts))) 0) in
  Alcotest.(check int) "the" 3 (find "the");
  Alcotest.(check int) "fox" 2 (find "fox");
  Alcotest.(check int) "dog" 1 (find "dog");
  Alcotest.(check int) "mapped" 8 stats.Job.records_mapped

let test_combiner_reduces_shuffle () =
  let data = Array.init 1000 (fun i -> i mod 5) in
  let ds = Dataset.of_array ~partitions:8 data in
  let run combine =
    let _, stats =
      Job.map_reduce ?combine
        ~map:(fun k -> [ (k, 1) ])
        ~reduce:(fun k vs -> [ (k, List.fold_left ( + ) 0 vs) ])
        ds
    in
    stats.Job.records_shuffled
  in
  let without = run None in
  let with_comb = run (Some (fun _ vs -> [ List.fold_left ( + ) 0 vs ])) in
  Alcotest.(check bool)
    (Printf.sprintf "combiner shrinks shuffle (%d -> %d)" without with_comb)
    true (with_comb < without / 5)

let test_shuffle_counts_cross_partition_only () =
  (* With an explicit reduce_partitions, a record whose hash destination
     is its own source partition never crosses the (simulated) network,
     so it must not be charged to the shuffle. Pin the corrected count by
     replaying the routing rule. *)
  let data = Array.init 40 Fun.id in
  let ds = Dataset.of_array ~partitions:4 data in
  let run ?reduce_partitions () =
    let _, stats =
      Job.map_reduce ?reduce_partitions
        ~map:(fun i -> [ (i, i) ])
        ~reduce:(fun _ vs -> vs)
        ds
    in
    stats
  in
  let expected n_reduce =
    let count = ref 0 in
    Array.iteri
      (fun src part ->
        Array.iter
          (fun k -> if Hashtbl.hash k mod n_reduce <> src then incr count)
          part)
      (Dataset.partitions ds)
  ; !count
  in
  let explicit_same = run ~reduce_partitions:4 () in
  Alcotest.(check int) "explicit n = input n" (expected 4)
    explicit_same.Job.records_shuffled;
  Alcotest.(check int) "matches implicit" (run ()).Job.records_shuffled
    explicit_same.Job.records_shuffled;
  let narrowed = run ~reduce_partitions:2 () in
  Alcotest.(check int) "narrowed: only true cross-partition traffic"
    (expected 2) narrowed.Job.records_shuffled;
  Alcotest.(check bool)
    (Printf.sprintf "home records uncharged (%d < 40)" narrowed.Job.records_shuffled)
    true
    (narrowed.Job.records_shuffled < Array.length data)

let test_reduce_groups_all_values () =
  let ds = Dataset.of_array ~partitions:4 (Array.init 100 Fun.id) in
  let result, _ =
    Job.map_reduce
      ~map:(fun i -> [ (i mod 3, i) ])
      ~reduce:(fun _ vs -> [ List.length vs ])
      ds
  in
  let sizes = Array.to_list (Dataset.to_array result) in
  Alcotest.(check int) "3 groups" 3 (List.length sizes);
  Alcotest.(check int) "all values" 100 (List.fold_left ( + ) 0 sizes)

let test_equi_join () =
  let rng = Mde_prob.Rng.create ~seed:5 () in
  let left = Array.init 120 (fun i -> (i, Mde_prob.Rng.int rng 20)) in
  let right = Array.init 80 (fun i -> (Mde_prob.Rng.int rng 20, i)) in
  let joined, stats =
    Job.equi_join
      ~left_key:(fun (_, k) -> k)
      ~right_key:(fun (k, _) -> k)
      (Dataset.of_array ~partitions:4 left)
      (Dataset.of_array ~partitions:3 right)
  in
  let expected =
    Array.fold_left
      (fun acc (_, lk) ->
        acc + Array.length (Array.of_list (List.filter (fun (rk, _) -> rk = lk) (Array.to_list right))))
      0 left
  in
  Alcotest.(check int) "pair count = nested loop" expected
    (Dataset.total_length joined);
  Dataset.iter
    (fun ((_, lk), (rk, _)) -> Alcotest.(check int) "keys agree" lk rk)
    joined;
  Alcotest.(check int) "all records mapped" 200 stats.Job.records_mapped

let test_sort_by () =
  let rng = Mde_prob.Rng.create ~seed:3 () in
  let data = Array.init 500 (fun _ -> Mde_prob.Rng.int rng 1000) in
  let ds = Dataset.of_array ~partitions:6 data in
  let sorted, stats = Job.sort_by ~cmp:Int.compare ds in
  let out = Dataset.to_array sorted in
  let expected = Array.copy data in
  Array.sort Int.compare expected;
  Alcotest.(check (array int)) "globally sorted" expected out;
  Alcotest.(check int) "nothing lost" 500 stats.Job.records_mapped

let test_sort_empty () =
  let ds = Dataset.of_array ~partitions:4 ([||] : int array) in
  let sorted, _ = Job.sort_by ~cmp:Int.compare ds in
  Alcotest.(check int) "empty" 0 (Dataset.total_length sorted)

let test_global_counter () =
  Job.reset_global_counter ();
  let ds = Dataset.of_array ~partitions:4 (Array.init 50 Fun.id) in
  let _ =
    Job.map_reduce ~map:(fun i -> [ (i, i) ]) ~reduce:(fun _ vs -> vs) ds
  in
  Alcotest.(check bool) "counter advanced" true (Job.global_records_shuffled () > 0);
  Job.reset_global_counter ();
  Alcotest.(check int) "reset" 0 (Job.global_records_shuffled ())

let prop_mapreduce_identity =
  QCheck.Test.make ~name:"map_reduce with identity preserves multiset" ~count:100
    QCheck.(list (int_range 0 50))
    (fun xs ->
      let ds = Dataset.of_array ~partitions:5 (Array.of_list xs) in
      let out, _ =
        Job.map_reduce ~map:(fun x -> [ (x, x) ]) ~reduce:(fun _ vs -> vs) ds
      in
      let sort l = List.sort Int.compare l in
      sort (Array.to_list (Dataset.to_array out)) = sort xs)

let prop_sort_by_sorts =
  QCheck.Test.make ~name:"sort_by output is sorted and complete" ~count:100
    QCheck.(list (int_range (-1000) 1000))
    (fun xs ->
      let ds = Dataset.of_array ~partitions:4 (Array.of_list xs) in
      let out, _ = Job.sort_by ~cmp:Int.compare ds in
      let result = Array.to_list (Dataset.to_array out) in
      result = List.sort Int.compare xs)

(* --- validation must survive -noassert builds --- *)

let test_dataset_validation () =
  Alcotest.check_raises "of_array"
    (Invalid_argument "Dataset.of_array: partitions must be positive") (fun () ->
      ignore (Dataset.of_array ~partitions:0 [| 1 |]));
  Alcotest.check_raises "of_partitions"
    (Invalid_argument "Dataset.of_partitions: at least one partition required")
    (fun () -> ignore (Dataset.of_partitions ([||] : int array array)))

let test_reduce_partitions_validation () =
  Alcotest.check_raises "non-positive reduce_partitions"
    (Invalid_argument "Job.map_reduce: reduce_partitions must be positive")
    (fun () ->
      ignore
        (Job.map_reduce ~reduce_partitions:0
           ~map:(fun x -> [ (x, x) ])
           ~reduce:(fun _ vs -> vs)
           (Dataset.of_array ~partitions:2 [| 1; 2; 3 |])))

(* Duplicate keys must come out in input order whatever the partition
   count or pool — the local sorts are index-stabilized like
   [Algebra.order_by]'s. *)
let prop_sort_by_stable =
  QCheck.Test.make ~name:"sort_by is stable on duplicate keys" ~count:100
    QCheck.(pair (int_range 1 6) (list (int_range 0 5)))
    (fun (partitions, keys) ->
      (* Tag each record with its input index; equal keys must keep
         ascending tags. *)
      let data = Array.of_list (List.mapi (fun i k -> (k, i)) keys) in
      let cmp (a, _) (b, _) = Int.compare a b in
      let ds = Dataset.of_array ~partitions data in
      let out, _ = Job.sort_by ~cmp ds in
      let out = Dataset.to_array out in
      let expected = Array.copy data in
      (* Array.sort is not stable; sort on (key, tag) instead, which is a
         total order, hence equals the unique stable sort by key. *)
      Array.sort compare expected;
      out = expected)

(* --- relational tables on the engine (Reljob) --- *)

module Reljob = Mde_mapred.Reljob
open Mde_relational

let value_identical a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

(* Reljob.group_by guarantees per-group values bit-identical to Algebra
   but its group *row order* is the job's, so compare canonically sorted
   rows pairwise. *)
let same_rows_as_multiset a b =
  let canon t =
    let rows = Array.to_list (Table.rows t) |> List.map Array.to_list in
    List.sort (List.compare Value.compare) rows
  in
  Table.cardinality a = Table.cardinality b
  && List.for_all2 (List.for_all2 value_identical) (canon a) (canon b)

let grouped_table rows =
  Table.create
    (Schema.of_list [ ("k", Value.Tfloat); ("v", Value.Tfloat) ])
    (List.map (fun (k, v) -> [| k; Value.Float v |]) rows)

let reljob_rows_gen =
  QCheck.Gen.(
    let key =
      frequency
        [ (5, map (fun f -> Value.Float (float_of_int f)) (int_range 0 4));
          (1, return (Value.Float nan));
          (1, return Value.Null) ]
    in
    list_size (int_range 0 40) (map2 (fun k v -> (k, v)) key (float_range (-5.) 5.)))

let reljob_aggs =
  [ ("n", Algebra.Count); ("s", Algebra.Sum (Expr.col "v"));
    ("m", Algebra.Avg (Expr.col "v")) ]

let prop_reljob_group_by_matches_algebra =
  QCheck.Test.make ~name:"Reljob.group_by == Algebra.group_by (as multiset)"
    ~count:100
    QCheck.(pair (int_range 1 5) (QCheck.make reljob_rows_gen))
    (fun (partitions, rows) ->
      let t = grouped_table rows in
      let oracle = Algebra.group_by ~keys:[ "k" ] ~aggs:reljob_aggs t in
      let out, _ = Reljob.group_by ~partitions ~keys:[ "k" ] ~aggs:reljob_aggs t in
      same_rows_as_multiset oracle out)

let prop_reljob_sort_matches_algebra =
  QCheck.Test.make ~name:"Reljob.sort_by == Algebra.order_by exactly" ~count:100
    QCheck.(triple (int_range 1 5) bool (QCheck.make reljob_rows_gen))
    (fun (partitions, descending, rows) ->
      let t = grouped_table rows in
      let oracle = Algebra.order_by ~descending [ "k" ] t in
      let out, _ = Reljob.sort_by ~partitions ~descending [ "k" ] t in
      Table.cardinality oracle = Table.cardinality out
      && Array.for_all2
           (fun ra rb -> Array.for_all2 value_identical ra rb)
           (Table.rows oracle) (Table.rows out))

let test_reljob_pooled_identity () =
  let rng = Mde_prob.Rng.create ~seed:11 () in
  let rows =
    List.init 2000 (fun i ->
        ( (if i mod 53 = 0 then Value.Float nan
           else Value.Float (float_of_int (Mde_prob.Rng.int rng 40))),
          Mde_prob.Rng.float_range rng (-5.) 5. ))
  in
  let t = grouped_table rows in
  Mde_par.Pool.with_pool ~domains:3 (fun pool ->
      let seq_g, _ = Reljob.group_by ~keys:[ "k" ] ~aggs:reljob_aggs t in
      let par_g, _ = Reljob.group_by ~pool ~keys:[ "k" ] ~aggs:reljob_aggs t in
      Alcotest.(check bool) "pooled group_by == sequential" true
        (Array.for_all2
           (fun ra rb -> Array.for_all2 value_identical ra rb)
           (Table.rows seq_g) (Table.rows par_g));
      let seq_s, _ = Reljob.sort_by [ "k" ] t in
      let par_s, _ = Reljob.sort_by ~pool [ "k" ] t in
      Alcotest.(check bool) "pooled sort_by == sequential" true
        (Array.for_all2
           (fun ra rb -> Array.for_all2 value_identical ra rb)
           (Table.rows seq_s) (Table.rows par_s)))

let test_reljob_nan_keys_and_empty () =
  let nan2 = Int64.float_of_bits 0xFFF8000000000001L in
  let t =
    grouped_table
      [ (Value.Float nan, 1.); (Value.Float 2., 10.); (Value.Float nan2, 5.) ]
  in
  let out, _ = Reljob.group_by ~keys:[ "k" ] ~aggs:[ ("n", Algebra.Count) ] t in
  Alcotest.(check int) "NaN payloads collapse to one group" 2 (Table.cardinality out);
  (* Global aggregate over empty input still emits its one row. *)
  let empty = Table.empty (Table.schema t) in
  let g, _ = Reljob.group_by ~keys:[] ~aggs:reljob_aggs empty in
  Alcotest.(check bool) "empty global row identical" true
    (same_rows_as_multiset (Algebra.group_by ~keys:[] ~aggs:reljob_aggs empty) g)

(* Min/Max are declared Float: over an Int column every engine picks
   the winner by [Value.compare] and emits it as a Float, so 2^53+1
   leaves as 2^53. and an all-Null group as Null, identically in the
   row oracle, [Columnar] and [Reljob]. *)
let test_min_max_over_int_column () =
  let big = (1 lsl 53) + 1 in
  let t =
    Table.create
      (Schema.of_list [ ("k", Value.Tint); ("i", Value.Tint) ])
      (List.map
         (fun (k, i) -> [| Value.Int k; i |])
         [ (0, Value.Int 3); (1, Value.Null); (0, Value.Int big); (2, Value.Null);
           (1, Value.Int (-5)); (0, Value.Int (big - 1)) ])
  in
  let aggs = [ ("lo", Algebra.Min (Expr.col "i")); ("hi", Algebra.Max (Expr.col "i")) ] in
  let oracle = Algebra.group_by ~keys:[ "k" ] ~aggs t in
  let columnar = Columnar.to_table (Columnar.group_by ~keys:[ "k" ] ~aggs (Columnar.of_table t)) in
  let reljob, _ = Reljob.group_by ~partitions:2 ~keys:[ "k" ] ~aggs t in
  let row k lo hi = [ Value.Int k; lo; hi ] in
  let expected =
    [ row 0 (Value.Float 3.) (Value.Float (float_of_int big));
      row 1 (Value.Float (-5.)) (Value.Float (-5.));
      row 2 Value.Null Value.Null ]
  in
  let canon t =
    Array.to_list (Table.rows t) |> List.map Array.to_list
    |> List.sort (List.compare Value.compare)
  in
  List.iter
    (fun (name, out) ->
      Alcotest.(check bool) (name ^ " rows") true
        (List.equal (List.equal value_identical) expected (canon out)))
    [ ("algebra", oracle); ("columnar", columnar); ("reljob", reljob) ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mde_mapred"
    [
      ( "dataset",
        [
          Alcotest.test_case "roundtrip" `Quick test_partition_roundtrip;
          Alcotest.test_case "small input" `Quick test_partition_small_input;
          Alcotest.test_case "map" `Quick test_map_preserves_structure;
          Alcotest.test_case "mapi" `Quick test_mapi_global_index;
          Alcotest.test_case "filter/fold" `Quick test_filter_fold;
          Alcotest.test_case "of_partitions copies" `Quick test_of_partitions_copies;
        ] );
      ( "job",
        [
          Alcotest.test_case "word count" `Quick test_word_count;
          Alcotest.test_case "combiner shrinks shuffle" `Quick test_combiner_reduces_shuffle;
          Alcotest.test_case "shuffle = cross-partition only" `Quick
            test_shuffle_counts_cross_partition_only;
          Alcotest.test_case "reduce sees all values" `Quick test_reduce_groups_all_values;
          Alcotest.test_case "reduce-side join" `Quick test_equi_join;
          Alcotest.test_case "sample sort" `Quick test_sort_by;
          Alcotest.test_case "sort empty" `Quick test_sort_empty;
          Alcotest.test_case "global counter" `Quick test_global_counter;
          Alcotest.test_case "dataset validation" `Quick test_dataset_validation;
          Alcotest.test_case "reduce_partitions validation" `Quick
            test_reduce_partitions_validation;
        ] );
      ( "reljob",
        [
          Alcotest.test_case "NaN keys + empty global" `Quick
            test_reljob_nan_keys_and_empty;
          Alcotest.test_case "pooled == sequential" `Quick test_reljob_pooled_identity;
          Alcotest.test_case "Min/Max over an Int column" `Quick test_min_max_over_int_column;
        ] );
      ( "properties",
        qc
          [ prop_mapreduce_identity; prop_sort_by_sorts; prop_sort_by_stable;
            prop_reljob_group_by_matches_algebra; prop_reljob_sort_matches_algebra ] );
    ]
