(* The experiment harness: regenerates every figure, algorithm and
   quantitative claim indexed in DESIGN.md / EXPERIMENTS.md.

     dune exec bench/main.exe            -- run every experiment
     dune exec bench/main.exe -- --list  -- list experiment ids
     dune exec bench/main.exe -- fig2 alg1
     dune exec bench/main.exe -- --perf  -- Bechamel microbenchmarks *)

let experiments : (string * string * (unit -> unit)) list =
  Figures.all @ Data_intensive.all @ Integration.all @ Metamodeling.all
  @ Ablations.all

let list_experiments () =
  Format.printf "available experiments:@.";
  List.iter (fun (id, desc, _) -> Format.printf "  %-8s %s@." id desc) experiments;
  Format.printf "  %-8s %s@." "--perf" "Bechamel microbenchmarks";
  Format.printf "  %-8s %s@." "--domains N"
    "sequential vs N-domain Monte Carlo replication wall time";
  Format.printf "  %-8s %s@." "--par [N]"
    "small-N pool smoke: asserts the domains=1 overhead gate (default N=1)";
  Format.printf "  %-8s %s@." "--serve [N]"
    "Zipf workload against the serving layer (optional domain count)";
  Format.printf "  %-8s %s@." "--bundle [rows reps]"
    "naive vs columnar tuple-bundle execution";
  Format.printf "  %-8s %s@." "--relational [rows [domains]]"
    "row algebra vs columnar relational pipeline, packed keyed operators \
     (pooled when domains > 1) and the plan executor";
  Format.printf "  %-8s %s@." "--shard [N]"
    "sharded serving front: bit-identity vs single shard + open-loop overload sweep";
  Format.printf "  %-8s %s@." "--session [N]"
    "progressive-refinement sessions: explorer vs round-robin (optional tick budget)"

let run_one id =
  match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
  | Some (_, _, fn) ->
    let (), { Util.seconds = elapsed; _ } = Util.timed fn in
    Format.printf "@.  [%s completed in %.1fs]@." id elapsed
  | None ->
    Format.eprintf "unknown experiment %S (use --list)@." id;
    exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--list" ] -> list_experiments ()
  | [ "--perf" ] -> Perf.run ()
  | [ "--domains"; n ] -> (
    match int_of_string_opt n with
    | Some domains when domains >= 1 -> Perf.run_parallel ~domains ()
    | _ ->
      Format.eprintf "--domains expects a positive integer, got %S@." n;
      exit 1)
  | [ "--par" ] -> Perf.run_parallel ~reps:120 ~domains:1 ()
  | [ "--par"; n ] -> (
    match int_of_string_opt n with
    | Some domains when domains >= 1 -> Perf.run_parallel ~reps:120 ~domains ()
    | _ ->
      Format.eprintf "--par expects a positive integer domain count, got %S@." n;
      exit 1)
  | [ "--bundle" ] -> Bundle_bench.run ()
  | [ "--bundle"; rows; reps ] -> (
    match (int_of_string_opt rows, int_of_string_opt reps) with
    | Some rows, Some reps when rows >= 1 && reps >= 2 ->
      Bundle_bench.run ~rows ~reps ()
    | _ ->
      Format.eprintf "--bundle expects positive integers ROWS REPS (reps >= 2)@.";
      exit 1)
  | [ "--relational" ] -> Relational_bench.run ()
  | [ "--relational"; rows ] -> (
    match int_of_string_opt rows with
    | Some rows when rows >= 1 -> Relational_bench.run ~rows ()
    | _ ->
      Format.eprintf "--relational expects a positive integer row count, got %S@." rows;
      exit 1)
  | [ "--relational"; rows; domains ] -> (
    match (int_of_string_opt rows, int_of_string_opt domains) with
    | Some rows, Some domains when rows >= 1 && domains >= 1 ->
      Relational_bench.run ~domains ~rows ()
    | _ ->
      Format.eprintf "--relational expects positive integers ROWS [DOMAINS]@.";
      exit 1)
  | [ "--shard" ] -> Shard_bench.run ()
  | [ "--shard"; n ] -> (
    match int_of_string_opt n with
    | Some shards when shards >= 1 -> Shard_bench.run ~shards ()
    | _ ->
      Format.eprintf "--shard expects a positive integer shard count, got %S@." n;
      exit 1)
  | [ "--session" ] -> Session_bench.run ()
  | [ "--session"; n ] -> (
    match int_of_string_opt n with
    | Some tick_reps when tick_reps >= 1 -> Session_bench.run ~tick_reps ()
    | _ ->
      Format.eprintf "--session expects a positive integer tick budget, got %S@." n;
      exit 1)
  | [ "--serve" ] -> Serve_bench.run ~domains:1 ()
  | [ "--serve"; n ] -> (
    match int_of_string_opt n with
    | Some domains when domains >= 1 -> Serve_bench.run ~domains ()
    | _ ->
      Format.eprintf "--serve expects a positive integer domain count, got %S@." n;
      exit 1)
  | [] ->
    Format.printf
      "Model-data ecosystems: reproducing every figure and experiment of@.";
    Format.printf "Haas, \"Model-Data Ecosystems\" (PODS 2014). See EXPERIMENTS.md.@.";
    List.iter (fun (id, _, _) -> run_one id) experiments
  | ids -> List.iter run_one ids
