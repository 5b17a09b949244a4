(* Relational tables on the MapReduce engine: the same group/shuffle and
   sample-sort machinery every other job uses, keyed by packed Keycode
   words (injective under Value.Key equality) so NaN and cross-type
   numeric keys behave exactly as they do in the columnar and row
   engines, and folding group members through Algebra's shared
   accumulators so per-group values come out bit-identical to the row
   oracle. *)
open Mde_relational

let dataset ?(partitions = 4) table =
  Dataset.of_array ~partitions (Table.rows table)

let group_by ?pool ?partitions ~keys ~aggs table =
  let schema = Table.schema table in
  let key_idx = List.map (Schema.column_index schema) keys in
  let out_schema =
    Schema.of_list
      (List.map (fun k -> (k, Schema.column_type schema k)) keys
      @ List.map (fun (n, a) -> (n, Algebra.agg_type a)) aggs)
  in
  (* The shuffle routes partitions in index order and each bucket
     preserves arrival order, so a group's rows arrive in original row
     order — float accumulation order matches the sequential oracle. *)
  let fold_group key rows =
    let accs = List.map (fun (_, a) -> (a, Algebra.fresh_acc ())) aggs in
    List.iter
      (fun row -> List.iter (fun (a, acc) -> Algebra.feed_acc a schema row acc) accs)
      rows;
    [ Array.of_list (key @ List.map (fun (a, acc) -> Algebra.finish_acc a acc) accs) ]
  in
  let rows = Table.rows table in
  (* Packed key codes: each row's composite key shuffles as one
     immediate int (mixed by [Keycode.int_hash]) instead of a boxed
     Value list; the empty key is one constant code. The reduce recovers
     the boxed key values from its first member row — all members agree
     under Value.Key equality, which the code is injective for. *)
  let n = Array.length rows in
  let key_cols =
    Array.of_list
      (List.map2
         (fun k j ->
           Column.of_det_cells ~ty:(Schema.column_type schema k) ~rows:n ~reps:1
             (fun i -> rows.(i).(j)))
         keys key_idx)
  in
  let codes =
    match Keycode.of_columns [ key_cols ] with
    | Some enc -> (Keycode.codes ?pool enc ~side:0 ~rows:n).keys
    | None -> invalid_arg "Reljob.group_by: uncertain key column"
  in
  let out, stats =
    Job.map_reduce ?pool ~hash:Keycode.int_hash ~equal:Int.equal
      ~map:(fun (i, row) -> [ (codes.(i), (row : Table.row)) ])
      ~reduce:(fun _code group_rows ->
        let row0 = List.hd group_rows in
        fold_group (List.map (fun j -> row0.(j)) key_idx) group_rows)
      (Dataset.of_array
         ~partitions:(Option.value ~default:4 partitions)
         (Array.mapi (fun i r -> (i, r)) rows))
  in
  let rows = Dataset.to_array out in
  let rows =
    (* A global aggregate over empty input still emits one row, per the
       row oracle's group_by contract. *)
    if Array.length rows = 0 && keys = [] then
      [| Array.of_list (List.map (fun (_, a) -> Algebra.finish_acc a (Algebra.fresh_acc ())) aggs) |]
    else rows
  in
  (Table.of_rows out_schema rows, stats)

let sort_by ?pool ?partitions ?(descending = false) names table =
  let schema = Table.schema table in
  let idxs = List.map (Schema.column_index schema) names in
  let cmp (a : Table.row) (b : Table.row) =
    let rec go = function
      | [] -> 0
      | i :: rest ->
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go rest
    in
    let c = go idxs in
    if descending then -c else c
  in
  let out, stats = Job.sort_by ?pool ~cmp (dataset ?partitions table) in
  (Table.of_rows schema (Dataset.to_array out), stats)
