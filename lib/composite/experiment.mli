(** Splash's experiment manager (§4.2, [26]): a unified view of composite
    model parameters, experimental designs over them, and runtime support
    for setting parameter values — the paper's "templating mechanism" that
    synthesizes the inputs each component model expects.

    A parameter binds a factor name to a range and a template: a function
    that, given the factor's value, produces (or rewrites) one of the
    composite's input datasets. Designs come from {!Mde_metamodel.Design};
    the manager scales coded levels into ranges, templates the inputs,
    runs the composite (with Monte Carlo replications per design point),
    and returns a response table ready for metamodel fitting. *)

type parameter = {
  factor : string;
  low : float;
  high : float;
  template : float -> (string * Splash.datum) list;
      (** input datasets this factor synthesizes at a given value *)
}

val number_parameter : factor:string -> dataset:string -> low:float -> high:float -> parameter
(** The common case: the factor value becomes a [Number] input dataset. *)

type design_spec =
  | Full_factorial  (** 2^k corners of the ranges *)
  | Latin_hypercube of { levels : int }
  | Nolh of { levels : int; tries : int }

type run_record = {
  point : float array;  (** natural-units factor values, parameter order *)
  replicate : int;
  response : float;
}

type result = {
  parameters : parameter list;
  design : float array array;  (** natural units, runs × factors *)
  runs : run_record array;
  mean_response : float array;  (** per design point *)
  response_variance : float array;  (** per design point, 0 if 1 replicate *)
}

val run :
  ?replications:int ->
  rng:Mde_prob.Rng.t ->
  design:design_spec ->
  parameters:parameter list ->
  composite:Splash.composite ->
  fixed_inputs:(string * Splash.datum) list ->
  response:((string * Splash.datum) list -> float) ->
  unit ->
  result
(** Execute the design: for each design point, template every parameter
    into input datasets (later parameters override earlier ones on name
    clashes; all override [fixed_inputs]), run the composite
    [replications] times on split RNG streams, and record the scalar
    response. Raises [Invalid_argument] if [replications < 1] or
    [parameters] is empty. *)

val to_metamodel_data : result -> float array array * float array
(** (design points, mean responses) in the form
    {!Mde_metamodel.Kriging.fit_mle} and {!Mde_metamodel.Polynomial.fit}
    consume. *)

val fit_kriging_metamodel : result -> Mde_metamodel.Kriging.t
(** Convenience: a GP metamodel of the composite response — "simulation
    on demand" over the design region. Uses stochastic kriging when the
    result has ≥ 2 replications per point (noise variances from the
    per-point sample variance), plain kriging otherwise. *)
