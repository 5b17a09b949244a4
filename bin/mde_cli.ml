(* mde — a command-line front end for the model-data-ecosystems library:
   run the headline simulators interactively with your own parameters.

     dune exec bin/mde_cli.exe -- traffic --density 0.25
     dune exec bin/mde_cli.exe -- epidemic --people 5000 --policy vaccinate-preschool
     dune exec bin/mde_cli.exe -- fire --steps 12 --proposal aware
     dune exec bin/mde_cli.exe -- schelling --size 30 --threshold 0.45
     dune exec bin/mde_cli.exe -- housing --bust-year 2006 *)

open Cmdliner
open Mde.Relational

(* Every subcommand takes --seed through this term, so validation (the
   seed must be non-negative) and the effective-seed echo are uniform:
   any run can be replayed from the first stderr line. *)
let seed_arg =
  let check seed =
    if seed < 0 then
      `Error (false, Printf.sprintf "--seed must be non-negative (got %d)" seed)
    else begin
      Printf.eprintf "mde: effective seed %d\n%!" seed;
      `Ok seed
    end
  in
  Term.(
    ret
      (const check
      $ Arg.(
          value
          & opt int 42
          & info [ "seed" ] ~docv:"N"
              ~doc:"Random seed (non-negative; echoed on stderr).")))

(* --- traffic --- *)

let traffic_cmd =
  let run density length steps seed =
    let params = { Mde.Abs.Traffic.default_params with length } in
    let rng = Mde.Prob.Rng.create ~seed () in
    let road = Mde.Abs.Traffic.create params ~density rng in
    for _ = 1 to 100 do
      Mde.Abs.Traffic.step road
    done;
    print_string (Mde.Abs.Traffic.space_time_diagram road ~steps ~lane:0);
    Printf.printf "\ndensity %.2f: flow %.4f, mean speed %.2f, jammed %.1f%%\n" density
      (Mde.Abs.Traffic.flow road)
      (Mde.Abs.Traffic.mean_speed road)
      (100. *. Mde.Abs.Traffic.jammed_fraction road)
  in
  let density =
    Arg.(value & opt float 0.2 & info [ "density" ] ~docv:"D" ~doc:"Car density in (0,1).")
  in
  let length =
    Arg.(value & opt int 120 & info [ "length" ] ~docv:"CELLS" ~doc:"Ring-road length.")
  in
  let steps =
    Arg.(value & opt int 30 & info [ "steps" ] ~docv:"N" ~doc:"Diagram rows to print.")
  in
  Cmd.v
    (Cmd.info "traffic" ~doc:"Nagel-Schreckenberg traffic with emergent jams")
    Term.(const run $ density $ length $ steps $ seed_arg)

(* --- epidemic --- *)

let epidemic_cmd =
  let run people days policy fear seed =
    let network = Mde.Epidemic.Network.synthetic ~seed ~n:people ~community_degree:4. () in
    let params =
      if fear then
        { Mde.Epidemic.Indemics.default_params with
          Mde.Epidemic.Indemics.fear_gain = 0.04;
          fear_distancing = 0.45
        }
      else Mde.Epidemic.Indemics.default_params
    in
    let engine = Mde.Epidemic.Indemics.create ~seed:(seed + 1) network params in
    let policy_fn =
      match policy with
      | "none" -> None
      | "vaccinate-preschool" -> Some Mde.Epidemic.Indemics.vaccinate_preschoolers
      | "quarantine" ->
        Some
          (fun engine ->
            let infected = Mde.Epidemic.Indemics.infected_table engine in
            Mde.Epidemic.Indemics.apply_intervention engine
              ~pids:
                (Array.to_list (Table.rows infected)
                |> List.map (fun r -> Value.to_int r.(0)))
              (Mde.Epidemic.Indemics.Quarantine 14))
      | "close-daycare" ->
        Some
          (fun engine ->
            if Mde.Epidemic.Indemics.day engine = 20 then begin
              Mde.Epidemic.Indemics.close_contacts engine ~kind:"daycare" ~days:60;
              0
            end
            else 0)
      | other ->
        Printf.eprintf "unknown policy %S\n" other;
        exit 1
    in
    let records = Mde.Epidemic.Indemics.run engine ~days ~policy:policy_fn in
    Printf.printf "%6s %8s %8s %8s %8s %8s\n" "day" "S" "E" "I" "R" "V";
    Array.iteri
      (fun d (r : Mde.Epidemic.Indemics.day_record) ->
        if d mod 10 = 0 then
          Printf.printf "%6d %8d %8d %8d %8d %8d\n" d r.Mde.Epidemic.Indemics.susceptible
            r.Mde.Epidemic.Indemics.exposed r.Mde.Epidemic.Indemics.infectious
            r.Mde.Epidemic.Indemics.recovered r.Mde.Epidemic.Indemics.vaccinated)
      records;
    Printf.printf "\nattack rate: %.1f%%  economic cost: %.0f\n"
      (100. *. Mde.Epidemic.Indemics.attack_rate records)
      (Mde.Epidemic.Indemics.economic_cost engine
         Mde.Epidemic.Indemics.default_cost_params records)
  in
  let people =
    Arg.(value & opt int 2000 & info [ "people" ] ~docv:"N" ~doc:"Population size.")
  in
  let days = Arg.(value & opt int 150 & info [ "days" ] ~docv:"N" ~doc:"Days to simulate.") in
  let policy =
    Arg.(
      value
      & opt string "none"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"none | vaccinate-preschool | quarantine | close-daycare")
  in
  let fear =
    Arg.(value & flag & info [ "fear" ] ~doc:"Enable fear-driven voluntary distancing.")
  in
  Cmd.v
    (Cmd.info "epidemic" ~doc:"Indemics-style contact-network epidemic with interventions")
    Term.(const run $ people $ days $ policy $ fear $ seed_arg)

(* --- fire --- *)

let fire_cmd =
  let run width height steps particles proposal seed =
    let params = Mde.Assimilate.Wildfire.default_params ~width ~height in
    let proposal =
      match proposal with
      | "bootstrap" -> `Bootstrap
      | "aware" -> `Sensor_aware
      | other ->
        Printf.eprintf "unknown proposal %S (bootstrap|aware)\n" other;
        exit 1
    in
    let result =
      Mde.Assimilate.Assimilation.run_experiment ~seed ~n_particles:particles ~params
        ~ignition:[ (width / 2, height / 2) ]
        ~sensor_spacing:4 ~steps ~proposal ()
    in
    Printf.printf "%6s %14s %16s %8s\n" "step" "filter error" "open-loop error" "ESS";
    Array.iter
      (fun (e : Mde.Assimilate.Assimilation.step_error) ->
        Printf.printf "%6d %14d %16d %8.1f\n" e.Mde.Assimilate.Assimilation.step
          e.Mde.Assimilate.Assimilation.filter_error
          e.Mde.Assimilate.Assimilation.open_loop_error e.Mde.Assimilate.Assimilation.ess)
      result.Mde.Assimilate.Assimilation.errors;
    Printf.printf "\nmean error: filter %.1f vs open-loop %.1f\n"
      result.Mde.Assimilate.Assimilation.mean_filter_error
      result.Mde.Assimilate.Assimilation.mean_open_loop_error
  in
  let width = Arg.(value & opt int 20 & info [ "width" ] ~docv:"W" ~doc:"Grid width.") in
  let height = Arg.(value & opt int 20 & info [ "height" ] ~docv:"H" ~doc:"Grid height.") in
  let steps = Arg.(value & opt int 12 & info [ "steps" ] ~docv:"N" ~doc:"Assimilation steps.") in
  let particles =
    Arg.(value & opt int 100 & info [ "particles" ] ~docv:"N" ~doc:"Particle count.")
  in
  let proposal =
    Arg.(value & opt string "bootstrap" & info [ "proposal" ] ~docv:"P" ~doc:"bootstrap | aware")
  in
  Cmd.v
    (Cmd.info "fire" ~doc:"wildfire data assimilation with a particle filter")
    Term.(const run $ width $ height $ steps $ particles $ proposal $ seed_arg)

(* --- schelling --- *)

let schelling_cmd =
  let run size threshold vacancy seed =
    let t = Mde.Abs.Schelling.create ~seed ~size ~vacancy ~threshold () in
    Printf.printf "initial segregation index: %.3f\n\n%s\n"
      (Mde.Abs.Schelling.segregation_index t)
      (Mde.Abs.Schelling.to_string t);
    let steps = Mde.Abs.Schelling.run_until_settled t in
    Printf.printf "after %d steps: segregation index %.3f\n\n%s" steps
      (Mde.Abs.Schelling.segregation_index t)
      (Mde.Abs.Schelling.to_string t)
  in
  let size = Arg.(value & opt int 24 & info [ "size" ] ~docv:"N" ~doc:"Grid side length.") in
  let threshold =
    Arg.(value & opt float 0.4 & info [ "threshold" ] ~docv:"T" ~doc:"Like-neighbour tolerance.")
  in
  let vacancy =
    Arg.(value & opt float 0.2 & info [ "vacancy" ] ~docv:"V" ~doc:"Vacant-cell fraction.")
  in
  Cmd.v
    (Cmd.info "schelling" ~doc:"Schelling segregation dynamics")
    Term.(const run $ size $ threshold $ vacancy $ seed_arg)

(* --- market --- *)

let market_cmd =
  let run a b agents noise steps seed =
    let rng = Mde.Prob.Rng.create ~seed () in
    let returns =
      Mde.Calibrate.Market.simulate_returns rng
        { Mde.Calibrate.Market.n_agents = agents; a; b; noise }
        ~steps ~burn_in:(steps / 5)
    in
    let m = Mde.Calibrate.Market.moments returns in
    Printf.printf "herding market (N=%d, a=%.4f, b=%.2f, noise=%.4f), %d steps\n\n"
      agents a b noise steps;
    Printf.printf "variance          %.4g\n" m.(0);
    Printf.printf "kurtosis          %.3f%s\n" m.(1)
      (if m.(1) > 3.5 then "   (fat tails)" else "");
    Printf.printf "acf1 of |returns| %.3f%s\n" m.(2)
      (if m.(2) > 0.1 then "   (volatility clustering)" else "");
    let summary = Mde.Prob.Stats.summarize returns in
    Printf.printf "\nreturns: %s\n"
      (Format.asprintf "%a" Mde.Prob.Stats.pp_summary summary)
  in
  let a =
    Arg.(value & opt float 0.002 & info [ "switching" ] ~doc:"Idiosyncratic switching rate a.")
  in
  let b = Arg.(value & opt float 0.3 & info [ "herding" ] ~doc:"Herding strength b.") in
  let agents = Arg.(value & opt int 50 & info [ "agents" ] ~doc:"Trader count.") in
  let noise = Arg.(value & opt float 0.002 & info [ "noise" ] ~doc:"News volatility.") in
  let steps = Arg.(value & opt int 2000 & info [ "steps" ] ~doc:"Return observations.") in
  Cmd.v
    (Cmd.info "market" ~doc:"the Kirman/Alfarano herding asset market")
    Term.(const run $ a $ b $ agents $ noise $ steps $ seed_arg)

(* --- mcdb --- *)

let mcdb_cmd =
  let run rows reps domains seed =
    if rows < 1 || reps < 1 || domains < 1 then begin
      prerr_endline "mcdb: --rows, --reps and --domains must be positive";
      exit 2
    end;
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
    let st =
      Mde.Mcdb.Stochastic_table.define ~name:"SBP_DATA"
        ~schema:
          (Schema.of_list
             [ ("pid", Value.Tint); ("gender", Value.Tstring); ("sbp", Value.Tfloat) ])
        ~driver:patients ~vg:Mde.Mcdb.Vg.normal
        ~params:(fun _ -> [ param ])
        ~combine:(fun d v -> [| d.(0); d.(1); v.(0) |])
    in
    let db = Mde.Mcdb.Database.create () in
    Mde.Mcdb.Database.add_stochastic db st;
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
    let wall f =
      let t0 = Mde.Obs.Clock.wall () in
      let r = f () in
      (r, Mde.Obs.Clock.wall () -. t0)
    in
    let samples_seq, t_seq =
      wall (fun () ->
          Mde.Mcdb.Database.monte_carlo db (Mde.Prob.Rng.create ~seed ()) ~reps ~query)
    in
    Printf.printf "MCDB mean-SBP query: %d driver rows, %d repetitions\n\n" rows reps;
    Printf.printf "sequential        %.3f s   %s\n" t_seq
      (Format.asprintf "%a" Mde.Mcdb.Estimator.pp_estimate
         (Mde.Mcdb.Estimator.of_samples samples_seq));
    if domains > 1 then begin
      let pool = Mde.Par.Pool.shared ~domains () in
      let samples_par, t_par =
        wall (fun () ->
            Mde.Mcdb.Database.monte_carlo ~pool db
              (Mde.Prob.Rng.create ~seed ())
              ~reps ~query)
      in
      Printf.printf "%d domains         %.3f s   %s\n" domains t_par
        (Format.asprintf "%a" Mde.Mcdb.Estimator.pp_estimate
           (Mde.Mcdb.Estimator.of_samples samples_par));
      Printf.printf "\nspeedup %.2fx on %d core(s); outputs %s\n" (t_seq /. t_par)
        (Domain.recommended_domain_count ())
        (if samples_seq = samples_par then "bit-identical (same seed, split streams)"
         else "DIFFER — determinism bug, please report");
      if samples_seq <> samples_par then exit 1
    end
  in
  let rows =
    Arg.(value & opt int 500 & info [ "rows" ] ~docv:"N" ~doc:"Driver-table rows.")
  in
  let reps =
    Arg.(value & opt int 400 & info [ "reps" ] ~docv:"N" ~doc:"Monte Carlo repetitions.")
  in
  let domains =
    Arg.(
      value
      & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Also run the replications on a pool of $(docv) domains and report \
             sequential-vs-parallel wall time plus an output-equality check.")
  in
  Cmd.v
    (Cmd.info "mcdb"
       ~doc:"Monte Carlo database replications, optionally domain-parallel")
    Term.(const run $ rows $ reps $ domains $ seed_arg)

(* --- housing --- *)

let housing_cmd =
  let run bust_year seed =
    let full = Mde.Timeseries.Synthetic.housing_index ~seed ~bust_year () in
    let history = Mde.Timeseries.Series.sub_before full bust_year in
    Printf.printf "%-16s %14s %12s\n" "model" "in-sample RMSE" "holdout RMSE";
    List.iter
      (fun (name, model) ->
        let fit = Mde.Timeseries.Forecast.fit model history in
        Printf.printf "%-16s %14.2f %12.2f\n" name
          (Mde.Timeseries.Forecast.in_sample_rmse fit)
          (Mde.Timeseries.Forecast.extrapolation_error fit ~actual:full))
      [ ("linear trend", Mde.Timeseries.Forecast.Linear_trend);
        ("quadratic", Mde.Timeseries.Forecast.Quadratic_trend);
        ("AR(12)", Mde.Timeseries.Forecast.Ar 12) ];
    Printf.printf "\n(The regime change at %.0f defeats every extrapolation.)\n" bust_year
  in
  let bust =
    Arg.(value & opt float 2006. & info [ "bust-year" ] ~docv:"Y" ~doc:"Regime-change year.")
  in
  Cmd.v
    (Cmd.info "housing" ~doc:"the Figure 1 extrapolation cautionary tale")
    Term.(const run $ bust $ seed_arg)

(* --- metrics --- *)

let metrics_cmd =
  let run requests concurrency zipf catalog_size domains format out seed =
    if requests < 1 || concurrency < 1 || catalog_size < 1 || domains < 1 then begin
      prerr_endline
        "mde metrics: --requests, --concurrency, --catalog and --domains must be \
         positive";
      exit 2
    end;
    (* Install the live registry before any instrumented object exists:
       the server, cache, scheduler and pool capture it at construction. *)
    let registry = Mde.Obs.create () in
    Mde.Obs.set_default registry;
    (* Always route through a pool (1-domain pools run sequentially on
       the caller) so pool batch/chunk/task metrics appear in the
       exposition alongside the serving-layer ones. *)
    let pool = Mde.Par.Pool.create ~domains () in
    let server = Mde.Serve.Demo.server ~pool () in
    let catalog = Mde.Serve.Demo.catalog catalog_size in
    let config = { Mde.Serve.Workload.requests; concurrency; zipf_s = zipf; seed } in
    let report, _responses =
      Mde.Serve.Workload.run (Mde.Serve.Target.of_server server) ~catalog config
    in
    Mde.Par.Pool.shutdown pool;
    Mde.Obs.set_default Mde.Obs.noop;
    Printf.eprintf "mde: workload served %d/%d requests in %.3f s\n%!" report.served
      report.issued report.elapsed;
    let prom = Mde.Obs.Export.prometheus registry in
    (match Mde.Obs.Export.validate_prometheus prom with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "mde metrics: exporter emitted a malformed line: %s\n" msg;
      exit 1);
    let payload =
      match format with
      | "prom" -> prom
      | "json" -> Mde.Obs.Export.json registry ^ "\n"
      | other ->
        Printf.eprintf "mde metrics: unknown format %S (prom|json)\n" other;
        exit 2
    in
    match out with
    | None -> print_string payload
    | Some path ->
      let oc = open_out path in
      output_string oc payload;
      close_out oc;
      Printf.eprintf "mde: metrics snapshot written to %s\n" path
  in
  let requests =
    Arg.(value & opt int 120 & info [ "requests" ] ~docv:"N" ~doc:"Workload requests.")
  in
  let concurrency =
    Arg.(
      value & opt int 8
      & info [ "concurrency" ] ~docv:"N" ~doc:"Closed-loop clients per round.")
  in
  let zipf =
    Arg.(
      value & opt float 1.1
      & info [ "zipf" ] ~docv:"S" ~doc:"Zipf popularity skew exponent.")
  in
  let catalog_size =
    Arg.(
      value & opt int 24 & info [ "catalog" ] ~docv:"N" ~doc:"Distinct request templates.")
  in
  let format =
    Arg.(
      value & opt string "prom"
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Snapshot format: prom (Prometheus text) or json.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Serve the workload over a pool of $(docv) domains; pool metrics are \
             exported either way (a 1-domain pool runs sequentially).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the snapshot to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "run the demo serving workload with observability on and dump the metrics \
          snapshot (validated Prometheus text or JSON)")
    Term.(
      const run $ requests $ concurrency $ zipf $ catalog_size $ domains $ format $ out
      $ seed_arg)

let () =
  let info =
    Cmd.info "mde" ~version:"1.0.0"
      ~doc:"model-data ecosystems: simulators from Haas (PODS 2014), runnable"
  in
  let group =
    Cmd.group info
      [ traffic_cmd; epidemic_cmd; fire_cmd; schelling_cmd; market_cmd; mcdb_cmd;
        housing_cmd; metrics_cmd ]
  in
  (* cmdliner's usage errors span several lines (message + usage + help
     pointer); compress to the first line so scripts see one diagnostic
     and a non-zero exit. *)
  let err_buf = Buffer.create 256 in
  let err_fmt = Format.formatter_of_buffer err_buf in
  match Cmd.eval_value ~err:err_fmt group with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error `Exn ->
    Format.pp_print_flush err_fmt ();
    prerr_string (Buffer.contents err_buf);
    exit 125
  | Error (`Parse | `Term) ->
    Format.pp_print_flush err_fmt ();
    let msg = String.trim (Buffer.contents err_buf) in
    let first_line =
      match String.index_opt msg '\n' with
      | Some i -> String.trim (String.sub msg 0 i)
      | None -> msg
    in
    prerr_endline
      (if first_line = "" then "mde: usage error, try 'mde --help'" else first_line);
    exit 2
