module Rng = Mde_prob.Rng
module Design = Mde_metamodel.Design

type parameter = {
  factor : string;
  low : float;
  high : float;
  template : float -> (string * Splash.datum) list;
}

let number_parameter ~factor ~dataset ~low ~high =
  { factor; low; high; template = (fun v -> [ (dataset, Splash.Number v) ]) }

type design_spec =
  | Full_factorial
  | Latin_hypercube of { levels : int }
  | Nolh of { levels : int; tries : int }

type run_record = { point : float array; replicate : int; response : float }

type result = {
  parameters : parameter list;
  design : float array array;
  runs : run_record array;
  mean_response : float array;
  response_variance : float array;
}

let build_design rng spec ~factors =
  match spec with
  | Full_factorial -> Design.full_factorial factors
  | Latin_hypercube { levels } -> Design.latin_hypercube ~rng ~factors ~levels
  | Nolh { levels; tries } -> Design.nearly_orthogonal_lh ~rng ~factors ~levels ~tries

let run ?(replications = 1) ~rng ~design ~parameters ~composite ~fixed_inputs
    ~response () =
  if replications < 1 then invalid_arg "Experiment.run: replications must be >= 1";
  let factors = List.length parameters in
  if factors < 1 then invalid_arg "Experiment.run: no parameters to vary";
  let coded = build_design rng design ~factors in
  let ranges =
    Array.of_list (List.map (fun p -> (p.low, p.high)) parameters)
  in
  let natural = Design.scale coded ~ranges in
  let runs = ref [] in
  let mean_response = Array.make (Array.length natural) 0. in
  let response_variance = Array.make (Array.length natural) 0. in
  Array.iteri
    (fun run_index point ->
      (* The templating step: synthesize the input datasets each component
         model expects from the factor values. *)
      let templated =
        List.concat
          (List.mapi (fun j p -> p.template point.(j)) parameters)
      in
      (* Later bindings win: templated parameters override fixed inputs. *)
      let inputs =
        List.fold_left
          (fun acc (name, datum) ->
            (name, datum) :: List.remove_assoc name acc)
          fixed_inputs templated
      in
      let samples =
        Array.init replications (fun replicate ->
            let stream = Rng.split rng in
            let outputs = Splash.execute composite stream ~inputs in
            let value = response outputs in
            runs := { point = Array.copy point; replicate; response = value } :: !runs;
            value)
      in
      mean_response.(run_index) <- Mde_prob.Stats.mean samples;
      response_variance.(run_index) <- Mde_prob.Stats.variance samples)
    natural;
  {
    parameters;
    design = natural;
    runs = Array.of_list (List.rev !runs);
    mean_response;
    response_variance;
  }

let to_metamodel_data result = (result.design, result.mean_response)

let fit_kriging_metamodel result =
  let design, means = to_metamodel_data result in
  let replications =
    Array.length result.runs / max 1 (Array.length result.design)
  in
  if replications >= 2 then begin
    let noise_variances =
      Array.map
        (fun v -> Float.max 1e-12 (v /. float_of_int replications))
        result.response_variance
    in
    (* Reuse the MLE hyperparameters from a plain fit, then add the noise. *)
    let mle = Mde_metamodel.Kriging.fit_mle ~design ~response:means () in
    Mde_metamodel.Kriging.fit_stochastic
      ~theta:(Mde_metamodel.Kriging.theta mle)
      ~tau2:(Mde_metamodel.Kriging.tau2 mle)
      ~design ~means ~noise_variances ()
  end
  else Mde_metamodel.Kriging.fit_mle ~design ~response:means ()
