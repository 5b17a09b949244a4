(* Relational tables on the MapReduce engine: the same group/shuffle and
   sample-sort machinery every other job uses. Grouping shuffles row
   indices keyed by packed Keycode words (injective under Value.Key
   equality), so NaN and cross-type numeric keys behave exactly as they
   do in the columnar and row engines; the job's output orders the rows
   group by group, and Columnar.group_by aggregates that order. *)
open Mde_relational

let group_by ?pool ?partitions ~keys ~aggs table =
  let schema = Table.schema table in
  let n = Table.cardinality table in
  let cols = Table.columns table in
  let key_cols =
    Array.of_list (List.map (fun k -> cols.(Schema.column_index schema k)) keys)
  in
  (* Each row's composite key shuffles as one immediate int (mixed by
     [Keycode.int_hash]); the empty key is one constant code. *)
  let codes =
    match Keycode.of_columns [ key_cols ] with
    | Some enc -> (Keycode.codes ?pool enc ~side:0 ~rows:n).keys
    | None -> invalid_arg "Reljob.group_by: uncertain key column"
  in
  (* The shuffle routes partitions in index order and each bucket
     preserves arrival order, so each reduce emits its group's row
     indices in original row order, and the output is a permutation in
     which every group is contiguous. Aggregating the permuted table
     then sees the groups in job order and each group's rows in row
     order: the float accumulation order of the row oracle. *)
  let perm, stats =
    Job.map_reduce ?pool ~hash:Keycode.int_hash ~equal:Int.equal
      ~map:(fun i -> [ (codes.(i), i) ])
      ~reduce:(fun _code members -> members)
      (Dataset.of_array ?partitions (Array.init n Fun.id))
  in
  let permuted = Table.of_columns schema ~rows:n (Column.gather cols (Dataset.to_array perm)) in
  (Columnar.to_table (Columnar.group_by ?pool ~keys ~aggs (Columnar.of_table permuted)), stats)

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
  let out, stats = Job.sort_by ?pool ~cmp (Dataset.of_array ?partitions (Table.rows table)) in
  (Table.of_rows schema (Dataset.to_array out), stats)
