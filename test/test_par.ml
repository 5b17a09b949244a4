open Mde_relational
module Pool = Mde_par.Pool
module Rng = Mde_prob.Rng
module St = Mde_mcdb.Stochastic_table
module Database = Mde_mcdb.Database
module Rc = Mde_composite.Result_cache
module Dataset = Mde_mapred.Dataset
module Job = Mde_mapred.Job

(* --- pool lifecycle --- *)

let test_lifecycle () =
  let pool = Pool.create ~domains:3 () in
  Alcotest.(check int) "domains" 3 (Pool.domains pool);
  let squares = Pool.parallel_init pool 257 (fun i -> i * i) in
  Alcotest.(check (array int)) "init" (Array.init 257 (fun i -> i * i)) squares;
  let doubled = Pool.parallel_map pool ~chunk:7 (fun x -> 2 * x) (Array.init 100 Fun.id) in
  Alcotest.(check (array int)) "map, odd chunk" (Array.init 100 (fun i -> 2 * i)) doubled;
  Alcotest.(check (array int)) "empty input" [||] (Pool.parallel_map pool Fun.id [||]);
  Alcotest.(check (array int)) "single element" [| 9 |]
    (Pool.parallel_map pool (fun x -> x * 3) [| 3 |]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* shutdown is idempotent *)
  Alcotest.(check bool) "closed pool rejects work" true
    (try
       ignore (Pool.parallel_init pool 4 Fun.id);
       false
     with Invalid_argument _ -> true)

let test_single_domain_pool () =
  (* domains = 1 degenerates to sequential execution on the caller. *)
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "one domain" 1 (Pool.domains pool);
      Alcotest.(check (array int)) "still correct" (Array.init 50 succ)
        (Pool.parallel_init pool 50 succ))

let test_create_rejects_zero_domains () =
  Alcotest.(check bool) "domains=0 rejected" true
    (try
       ignore (Pool.create ~domains:0 ());
       false
     with Invalid_argument _ -> true)

let test_with_pool_shuts_down_on_raise () =
  let captured = ref None in
  (try
     Pool.with_pool ~domains:2 (fun pool ->
         captured := Some pool;
         failwith "escape")
   with Failure _ -> ());
  match !captured with
  | None -> Alcotest.fail "with_pool never ran"
  | Some pool ->
    Alcotest.(check bool) "pool closed after raise" true
      (try
         ignore (Pool.parallel_init pool 2 Fun.id);
         false
       with Invalid_argument _ -> true)

let test_chunk_validated_on_every_pool_size () =
  (* Regression: the 1-domain fast path used to return before the
     [?chunk] check, so [~chunk:0] silently succeeded there while
     raising on a multi-domain pool. *)
  let rejects pool label =
    Alcotest.(check bool) label true
      (try
         ignore (Pool.parallel_init pool ~chunk:0 8 Fun.id);
         false
       with Invalid_argument _ -> true);
    Alcotest.(check bool) (label ^ ", negative") true
      (try
         ignore (Pool.parallel_map pool ~chunk:(-3) Fun.id (Array.init 8 Fun.id));
         false
       with Invalid_argument _ -> true)
  in
  Pool.with_pool ~domains:1 (fun pool -> rejects pool "chunk=0 on 1-domain pool");
  Pool.with_pool ~domains:2 (fun pool -> rejects pool "chunk=0 on 2-domain pool")

let test_each_index_evaluated_once () =
  (* The unboxed write path seeds the result array with [f 0] computed
     on the caller; no index may be skipped or recomputed because of
     that. *)
  Pool.with_pool ~domains:3 (fun pool ->
      let counts = Array.init 101 (fun _ -> Atomic.make 0) in
      let out =
        Pool.parallel_init pool ~chunk:4 101 (fun i ->
            Atomic.incr counts.(i);
            i)
      in
      Alcotest.(check (array int)) "values correct" (Array.init 101 Fun.id) out;
      Array.iteri
        (fun i c ->
          Alcotest.(check int) (Printf.sprintf "index %d ran once" i) 1 (Atomic.get c))
        counts)

let test_iter_optional_pool () =
  (* The ?pool pass-through form: a plain for loop without a pool, the
     same disjoint-slot fill with one — identical results either way. *)
  let fill pool =
    let out = Array.make 257 0 in
    Pool.iter ?pool 257 (fun i -> out.(i) <- i * i);
    out
  in
  let expected = Array.init 257 (fun i -> i * i) in
  Alcotest.(check (array int)) "sequential fill" expected (fill None);
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check (array int)) "pooled fill identical" expected (fill (Some pool)))

let test_stats () =
  Pool.with_pool ~domains:2 (fun pool ->
      ignore (Pool.parallel_init pool ~chunk:1 32 Fun.id);
      let s = Pool.stats pool in
      Alcotest.(check int) "stat domains" 2 s.Pool.stat_domains;
      Alcotest.(check bool) "a batch fanned out" true (s.Pool.batches >= 1);
      Alcotest.(check int) "every chunk executed and counted" 32
        (Array.fold_left ( + ) 0 s.Pool.tasks);
      Alcotest.(check int) "per-domain array sized to the pool" 2
        (Array.length s.Pool.tasks))

(* A pure, index-only item whose bits a wrong index or a lost write
   would change. *)
let item i = sin (float_of_int i *. 0.37) *. 1e3

let check_once label counts =
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "%s: index %d ran once" label i) 1
        (Atomic.get c))
    counts

let test_nested_batch () =
  (* A chunk submits a batch to the pool it runs on: the inner batch
     must complete (no deadlock) with every index run once. *)
  let outer = 12 and inner = 50 in
  let expected =
    Array.init outer (fun i -> Array.init inner (fun j -> item ((i * inner) + j)))
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let counts = Array.init (outer * inner) (fun _ -> Atomic.make 0) in
          let out =
            Pool.parallel_init pool ~chunk:1 outer (fun i ->
                Pool.parallel_init pool ~chunk:3 inner (fun j ->
                    let k = (i * inner) + j in
                    Atomic.incr counts.(k);
                    item k))
          in
          let label = Printf.sprintf "%d domains" domains in
          Alcotest.(check (array (array (float 0.)))) label expected out;
          check_once label counts))
    [ 2; 3 ]

let test_concurrent_submitters () =
  (* Two domains submit batches to one pool at the same time; each
     batch still runs each of its indices once and returns its own
     results. *)
  let rounds = 20 and n = 97 in
  Pool.with_pool ~domains:3 (fun pool ->
      let submitter s =
        Domain.spawn (fun () ->
            Array.init rounds (fun r ->
                let counts = Array.init n (fun _ -> Atomic.make 0) in
                let out =
                  Pool.parallel_init pool ~chunk:2 n (fun i ->
                      Atomic.incr counts.(i);
                      item ((((s * rounds) + r) * n) + i))
                in
                (out, counts)))
      in
      let results = List.map Domain.join [ submitter 0; submitter 1 ] |> Array.of_list in
      Array.iteri
        (fun s per_round ->
          Array.iteri
            (fun r (out, counts) ->
              let label = Printf.sprintf "submitter %d round %d" s r in
              Alcotest.(check (array (float 0.))) label
                (Array.init n (fun i -> item ((((s * rounds) + r) * n) + i)))
                out;
              check_once label counts)
            per_round)
        results)

let test_crossover_fast_path_engages () =
  (* Trivial work trains the per-site estimate down to nanoseconds per
     item, after which an unchunked small batch must run sequentially on
     the caller. A few attempts absorb scheduling noise in the first
     measurement. *)
  Pool.with_pool ~domains:2 (fun pool ->
      let engaged = ref false in
      for _ = 1 to 12 do
        let before = (Pool.stats pool).Pool.seq_batches in
        ignore (Pool.parallel_init pool ~site:"test.tiny" 16 Fun.id);
        if (Pool.stats pool).Pool.seq_batches > before then engaged := true
      done;
      Alcotest.(check bool) "sequential fast path engaged" true !engaged;
      (* An explicit [~chunk] is an instruction to fan out regardless. *)
      let before = (Pool.stats pool).Pool.batches in
      ignore (Pool.parallel_init pool ~site:"test.tiny" ~chunk:4 16 Fun.id);
      Alcotest.(check bool) "explicit chunk still fans out" true
        ((Pool.stats pool).Pool.batches > before))

let test_shared_pool_reused () =
  let p1 = Pool.shared ~domains:2 () in
  let p2 = Pool.shared ~domains:2 () in
  Alcotest.(check bool) "same size, same pool" true (p1 == p2);
  let p3 = Pool.shared ~domains:1 () in
  Alcotest.(check bool) "different size, different pool" true (p1 != p3);
  Alcotest.(check (array int)) "shared pool computes" (Array.init 40 succ)
    (Pool.parallel_init p1 40 succ)

(* --- exception propagation --- *)

exception Worker_trouble of int

let test_exception_propagates () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check bool) "exception reaches caller" true
        (try
           ignore
             (Pool.parallel_init pool ~chunk:1 64 (fun i ->
                  if i = 37 then raise (Worker_trouble i) else i));
           false
         with Worker_trouble 37 -> true);
      (* The failed batch drains completely; the pool keeps working. *)
      Alcotest.(check (array int)) "pool alive after failure"
        (Array.init 30 Fun.id)
        (Pool.parallel_init pool 30 Fun.id))

let test_parallel_iter_each_index_once () =
  Pool.with_pool ~domains:3 (fun pool ->
      let counts = Array.init 101 (fun _ -> Atomic.make 0) in
      Pool.parallel_iter pool ~chunk:4 101 (fun i -> Atomic.incr counts.(i));
      Array.iteri
        (fun i c ->
          Alcotest.(check int) (Printf.sprintf "index %d ran once" i) 1 (Atomic.get c))
        counts;
      Pool.parallel_iter pool 0 (fun _ -> Alcotest.fail "empty sweep ran its body");
      Alcotest.(check bool) "chunk=0 rejected" true
        (try
           Pool.parallel_iter pool ~chunk:0 8 ignore;
           false
         with Invalid_argument _ -> true))

let test_parallel_iter_exception_propagates () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check bool) "exception reaches caller" true
        (try
           Pool.parallel_iter pool ~chunk:1 64 (fun i ->
               if i = 23 then raise (Worker_trouble i));
           false
         with Worker_trouble 23 -> true);
      let out = Array.make 30 0 in
      Pool.parallel_iter pool 30 (fun i -> out.(i) <- i + 1);
      Alcotest.(check (array int)) "pool alive after failure" (Array.init 30 succ) out)

let test_shutdown_drains_in_flight_work () =
  (* Close the pool under a batch submitted from another domain: every
     queued chunk must still run before the workers exit. *)
  let pool = Pool.create ~domains:3 () in
  let started = Atomic.make false in
  let submitter =
    Domain.spawn (fun () ->
        Pool.parallel_init pool ~chunk:1 64 (fun i ->
            if i > 0 then Atomic.set started true;
            i * i))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Pool.shutdown pool;
  Alcotest.(check (array int)) "every chunk of the in-flight batch ran"
    (Array.init 64 (fun i -> i * i))
    (Domain.join submitter);
  Alcotest.(check bool) "submit after shutdown raises" true
    (try
       ignore (Pool.parallel_init pool 4 Fun.id);
       false
     with Invalid_argument _ -> true)

(* --- determinism: parallel == sequential, bit for bit --- *)

let patients n =
  Table.create
    (Schema.of_list [ ("pid", Value.Tint); ("gender", Value.Tstring) ])
    (List.init n (fun i ->
         [| Value.Int i; Value.String (if i mod 2 = 0 then "F" else "M") |]))

let sbp_param =
  Table.create
    (Schema.of_list [ ("mean", Value.Tfloat); ("std", Value.Tfloat) ])
    [ [| Value.Float 120.; Value.Float 15. |] ]

let sbp_db rows =
  let st =
    St.define ~name:"SBP_DATA"
      ~schema:
        (Schema.of_list
           [ ("pid", Value.Tint); ("gender", Value.Tstring); ("sbp", Value.Tfloat) ])
      ~driver:(patients rows) ~vg:Mde_mcdb.Vg.normal
      ~params:(fun _ -> [ sbp_param ])
      ~combine:(fun driver vg_row -> [| driver.(0); driver.(1); vg_row.(0) |])
  in
  let db = Database.create () in
  Database.add_stochastic db st;
  db

let mean_sbp catalog =
  let t = Catalog.find catalog "SBP_DATA" in
  let total = ref 0. and n = ref 0 in
  Table.iter
    (fun row ->
      total := !total +. Value.to_float row.(2);
      incr n)
    t;
  !total /. float_of_int !n

let test_mcdb_parallel_deterministic () =
  let db = sbp_db 60 in
  let reps = 48 in
  let sequential =
    Database.monte_carlo db (Rng.create ~seed:77 ()) ~reps ~query:mean_sbp
  in
  Pool.with_pool ~domains:4 (fun pool ->
      let parallel =
        Database.monte_carlo ~pool db (Rng.create ~seed:77 ()) ~reps ~query:mean_sbp
      in
      Alcotest.(check (array (float 0.))) "bit-identical samples" sequential parallel);
  (* A different seed must still change the answer (the equality above is
     not vacuous). *)
  let other = Database.monte_carlo db (Rng.create ~seed:78 ()) ~reps ~query:mean_sbp in
  Alcotest.(check bool) "seed still matters" true (sequential <> other)

let test_instantiate_many_deterministic () =
  let st =
    St.define ~name:"T"
      ~schema:(Schema.of_list [ ("pid", Value.Tint); ("g", Value.Tstring); ("x", Value.Tfloat) ])
      ~driver:(patients 20) ~vg:Mde_mcdb.Vg.normal
      ~params:(fun _ -> [ sbp_param ])
      ~combine:(fun driver vg_row -> [| driver.(0); driver.(1); vg_row.(0) |])
  in
  let realize pool = St.instantiate_many ?pool st (Rng.create ~seed:5 ()) 12 in
  let sequential = realize None in
  Pool.with_pool ~domains:3 (fun pool ->
      let parallel = realize (Some pool) in
      Array.iteri
        (fun r inst ->
          Alcotest.(check bool)
            (Printf.sprintf "realization %d identical" r)
            true
            (Table.rows inst = Table.rows sequential.(r)))
        parallel)

let test_map_reduce_parallel_deterministic () =
  let data = Array.init 500 (fun i -> i mod 17) in
  let ds = Dataset.of_array ~partitions:8 data in
  let run ?pool () =
    Job.map_reduce ?pool
      ~map:(fun k -> [ (k, 1) ])
      ~reduce:(fun k vs -> [ (k, List.fold_left ( + ) 0 vs) ])
      ds
  in
  let out_seq, stats_seq = run () in
  Pool.with_pool ~domains:4 (fun pool ->
      let out_par, stats_par = run ~pool () in
      Alcotest.(check (array (pair int int)))
        "identical output, identical order"
        (Dataset.to_array out_seq) (Dataset.to_array out_par);
      Alcotest.(check int) "same shuffle count" stats_seq.Job.records_shuffled
        stats_par.Job.records_shuffled;
      Alcotest.(check int) "same reduce count" stats_seq.Job.records_reduced
        stats_par.Job.records_reduced)

let test_pilot_parallel_deterministic () =
  (* Two-stage composite with known variance split; the sampled outputs
     (so V1/V2) must not depend on the pool. *)
  let two_stage =
    {
      Rc.model1 = (fun rng -> 2. *. Mde_prob.Rng.float rng);
      model2 = (fun rng y1 -> y1 +. Mde_prob.Rng.float rng);
    }
  in
  let p_seq = Rc.pilot two_stage (Rng.create ~seed:9 ()) ~inputs:40 ~outputs_per_input:4 in
  Pool.with_pool ~domains:4 (fun pool ->
      let p_par =
        Rc.pilot ~pool two_stage (Rng.create ~seed:9 ()) ~inputs:40 ~outputs_per_input:4
      in
      Alcotest.(check (float 0.)) "V1 identical" p_seq.Rc.statistics.Rc.v1
        p_par.Rc.statistics.Rc.v1;
      Alcotest.(check (float 0.)) "V2 identical" p_seq.Rc.statistics.Rc.v2
        p_par.Rc.statistics.Rc.v2)

let () =
  Alcotest.run "mde_par"
    [
      ( "pool",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "single-domain pool" `Quick test_single_domain_pool;
          Alcotest.test_case "zero domains rejected" `Quick test_create_rejects_zero_domains;
          Alcotest.test_case "with_pool cleans up" `Quick test_with_pool_shuts_down_on_raise;
          Alcotest.test_case "chunk validated on every pool size" `Quick
            test_chunk_validated_on_every_pool_size;
          Alcotest.test_case "each index evaluated once" `Quick
            test_each_index_evaluated_once;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "crossover fast path" `Quick
            test_crossover_fast_path_engages;
          Alcotest.test_case "shared pool reused" `Quick test_shared_pool_reused;
          Alcotest.test_case "iter with optional pool" `Quick test_iter_optional_pool;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "parallel_iter each index once" `Quick
            test_parallel_iter_each_index_once;
          Alcotest.test_case "parallel_iter exception propagation" `Quick
            test_parallel_iter_exception_propagates;
          Alcotest.test_case "shutdown drains in-flight work" `Quick
            test_shutdown_drains_in_flight_work;
          Alcotest.test_case "nested batch on the same pool" `Quick test_nested_batch;
          Alcotest.test_case "two submitting domains" `Quick test_concurrent_submitters;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "mcdb monte carlo" `Quick test_mcdb_parallel_deterministic;
          Alcotest.test_case "instantiate_many" `Quick test_instantiate_many_deterministic;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce_parallel_deterministic;
          Alcotest.test_case "result-cache pilot" `Quick test_pilot_parallel_deterministic;
        ] );
    ]
