type stats = {
  records_mapped : int;
  records_shuffled : int;
  records_reduced : int;
  partitions : int;
}

let pp_stats ppf s =
  Format.fprintf ppf "mapped=%d shuffled=%d reduced=%d partitions=%d"
    s.records_mapped s.records_shuffled s.records_reduced s.partitions

let global_shuffled = ref 0
let reset_global_counter () = global_shuffled := 0
let global_records_shuffled () = !global_shuffled

(* Group (key, value) pairs by key, preserving first-seen key order and
   per-key emission order — shared by the combiner and the reduce phase.
   The defaults reproduce a polymorphic hash table; Reljob passes packed
   key codes with [Keycode.int_hash] and [Int.equal]. *)
let group_pairs ?(hash = Hashtbl.hash) ?(equal = ( = )) pairs =
  let buckets = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (k, v) ->
      let h = hash k in
      let bucket =
        match Hashtbl.find_opt buckets h with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.add buckets h b;
          b
      in
      match List.find_opt (fun (k', _) -> equal k' k) !bucket with
      | Some (_, vs) -> vs := v :: !vs
      | None ->
        let vs = ref [ v ] in
        bucket := (k, vs) :: !bucket;
        order := (k, vs) :: !order)
    pairs;
  List.rev_map (fun (k, vs) -> (k, List.rev !vs)) !order

let map_reduce ?pool ?reduce_partitions ?(hash = Hashtbl.hash) ?(equal = ( = ))
    ?combine ~map ~reduce input =
  let in_parts = Dataset.partitions input in
  let n_reduce =
    match reduce_partitions with
    | Some n ->
      (* Not an assert: validation must survive [-noassert] builds. *)
      if n <= 0 then invalid_arg "Job.map_reduce: reduce_partitions must be positive";
      n
    | None -> Array.length in_parts
  in
  (* Map phase (local to each input partition): independent per
     partition, so it fans out over the pool when one is supplied. *)
  let map_partition part =
    let mapped = ref 0 in
    let emitted = ref [] in
    Array.iter
      (fun record ->
        incr mapped;
        List.iter (fun kv -> emitted := kv :: !emitted) (map record))
      part;
    let emitted = List.rev !emitted in
    (* Optional combiner: group locally and pre-reduce before shuffling. *)
    let to_shuffle =
      match combine with
      | None -> emitted
      | Some combiner ->
        List.concat_map
          (fun (k, vs) -> List.map (fun v -> (k, v)) (combiner k vs))
          (group_pairs ~hash ~equal emitted)
    in
    (!mapped, to_shuffle)
  in
  let mapped_parts = Mde_par.Pool.map ?pool ~site:"mapred.map" map_partition in_parts in
  let records_mapped = Array.fold_left (fun acc (m, _) -> acc + m) 0 mapped_parts in
  (* Shuffle: route sequentially so every reduce bucket accumulates its
     (key, value) pairs in the same arrival order with or without a
     pool. Only true cross-partition traffic (dest <> src) is charged to
     the shuffle, whatever the reduce-side partition count. *)
  let records_shuffled = ref 0 in
  let buckets = Array.init n_reduce (fun _ -> ref []) in
  Array.iteri
    (fun src_part (_, to_shuffle) ->
      List.iter
        (fun (k, v) ->
          let dest = hash k mod n_reduce in
          if dest <> src_part then begin
            incr records_shuffled;
            incr global_shuffled
          end;
          buckets.(dest) := (k, v) :: !(buckets.(dest)))
        to_shuffle)
    mapped_parts;
  (* Reduce phase: group by key per partition, preserving first-seen
     order; partitions are independent, so this fans out too. *)
  let reduced_parts =
    Mde_par.Pool.map ?pool ~site:"mapred.reduce"
      (fun bucket ->
        let grouped = group_pairs ~hash ~equal (List.rev !bucket) in
        let outputs =
          List.concat_map (fun (k, vs) -> reduce k vs) grouped
        in
        (Array.of_list outputs, List.length grouped))
      buckets
  in
  let out_parts = Array.map fst reduced_parts in
  let records_reduced = Array.fold_left (fun acc (_, g) -> acc + g) 0 reduced_parts in
  ( Dataset.of_partitions out_parts,
    {
      records_mapped;
      records_shuffled = !records_shuffled;
      records_reduced;
      partitions = n_reduce;
    } )

let equi_join ?pool ?partitions ?hash ?equal ~left_key ~right_key left right =
  (* Tag records by side, union the datasets, shuffle on the key, and
     cross the sides within each reduce group. *)
  let tagged =
    Dataset.of_partitions
      (Array.append
         (Dataset.partitions (Dataset.map (fun a -> `Left a) left))
         (Dataset.partitions (Dataset.map (fun b -> `Right b) right)))
  in
  let reduce_partitions =
    match partitions with
    | Some p -> p
    | None -> Dataset.partition_count left + Dataset.partition_count right
  in
  map_reduce ?pool ~reduce_partitions ?hash ?equal
    ~map:(fun tagged_record ->
      match tagged_record with
      | `Left a -> [ (left_key a, `Left a) ]
      | `Right b -> [ (right_key b, `Right b) ])
    ~reduce:(fun _key values ->
      let lefts = List.filter_map (function `Left a -> Some a | `Right _ -> None) values in
      let rights = List.filter_map (function `Right b -> Some b | `Left _ -> None) values in
      List.concat_map (fun a -> List.map (fun b -> (a, b)) rights) lefts)
    tagged

let sort_by ?pool ~cmp input =
  let parts = Dataset.partitions input in
  let n_parts = Array.length parts in
  let total = Dataset.total_length input in
  if total = 0 then
    ( input,
      { records_mapped = 0; records_shuffled = 0; records_reduced = 0; partitions = n_parts }
    )
  else begin
    (* Sample sort: take evenly spaced samples as range boundaries. *)
    let all = Dataset.to_array input in
    let sample = Array.copy all in
    Array.sort cmp sample;
    let boundaries =
      Array.init (n_parts - 1) (fun i -> sample.((i + 1) * total / n_parts))
    in
    let dest_of x =
      (* First range whose boundary exceeds x. *)
      let rec go i =
        if i >= Array.length boundaries then n_parts - 1
        else if cmp x boundaries.(i) < 0 then i
        else go (i + 1)
      in
      go 0
    in
    let buckets = Array.make n_parts [] in
    let shuffled = ref 0 in
    Array.iteri
      (fun src part ->
        Array.iter
          (fun x ->
            let dest = dest_of x in
            if dest <> src then begin
              incr shuffled;
              incr global_shuffled
            end;
            buckets.(dest) <- x :: buckets.(dest))
          part)
      parts;
    (* Local sorts are independent per range partition. Array.sort is
       not stable; sort (record, arrival index) pairs so equal-key
       records keep their arrival (= input) order, the same idiom as
       the row oracle's order_by — otherwise the sample sort and the sequential
       oracle disagree on duplicate keys. *)
    let out =
      Mde_par.Pool.map ?pool ~site:"mapred.sort"
        (fun bucket ->
          let indexed = Array.of_list (List.rev bucket) in
          let indexed = Array.mapi (fun i x -> (x, i)) indexed in
          Array.sort
            (fun (x, i) (y, j) ->
              let c = cmp x y in
              if c <> 0 then c else Int.compare i j)
            indexed;
          Array.map fst indexed)
        buckets
    in
    ( Dataset.of_partitions out,
      {
        records_mapped = total;
        records_shuffled = !shuffled;
        records_reduced = 0;
        partitions = n_parts;
      } )
  end
