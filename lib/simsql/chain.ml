open Mde_relational
module Rng = Mde_prob.Rng

module String_map = Map.Make (String)

type state = Table.t String_map.t

let state_of_tables tables =
  List.fold_left (fun acc (name, t) -> String_map.add name t acc) String_map.empty tables

let table state name =
  match String_map.find_opt name state with
  | Some t -> t
  | None -> raise Not_found

let table_opt state name = String_map.find_opt name state
let table_names state = List.map fst (String_map.bindings state)
let with_table state name t = String_map.add name t state

type t = {
  initial : Rng.t -> state;
  transition : Rng.t -> state -> state;
}

(* The one stepping loop: D[0] then [steps] transitions, each state
   handed to [visit] with its index; returns D[steps]. *)
let run t rng ~steps visit =
  let state = ref (t.initial rng) in
  visit 0 !state;
  for i = 1 to steps do
    state := t.transition rng !state;
    visit i !state
  done;
  !state

let simulate t rng ~steps =
  (* Not an assert: validation must survive [-noassert] builds. *)
  if steps < 0 then invalid_arg "Chain.simulate: steps must be non-negative";
  let states = Array.make (steps + 1) String_map.empty in
  ignore (run t rng ~steps (fun i s -> states.(i) <- s));
  states

let simulate_query t rng ~steps ~query =
  Array.map query (simulate t rng ~steps)

(* One pre-split stream per replication: the pooled fan-out consumes
   exactly the stream the sequential loop would, so results are
   bit-identical with or without a pool. *)
let replicate ?pool rng ~reps f =
  let streams = Rng.split_n rng reps in
  Mde_par.Pool.init ?pool ~site:"simsql.monte_carlo" reps (fun r -> f streams.(r))

let monte_carlo ?pool t rng ~steps ~reps ~query =
  if reps <= 0 then invalid_arg "Chain.monte_carlo: reps must be positive";
  replicate ?pool rng ~reps (fun rng -> simulate_query t rng ~steps ~query)

let final_values ?pool t rng ~steps ~reps ~query =
  if reps <= 0 then invalid_arg "Chain.final_values: reps must be positive";
  if steps < 0 then invalid_arg "Chain.final_values: steps must be non-negative";
  (* [query] draws nothing, so skipping it on D[0..steps-1] leaves every
     stream, and so D[steps], as [monte_carlo] has them. *)
  replicate ?pool rng ~reps (fun rng -> query (run t rng ~steps (fun _ _ -> ())))

module Rules = struct
  type rule = {
    target : string;
    derive : Rng.t -> state -> Table.t;
  }

  let vg_rule ~target ~schema ~driver ~vg ~params ~combine =
    let derive rng state =
      let st =
        Mde_mcdb.Stochastic_table.define ~name:target ~schema ~driver:(driver state)
          ~vg
          ~params:(params state)
          ~combine
      in
      Mde_mcdb.Stochastic_table.instantiate st rng
    in
    { target; derive }

  let plan_rule ?pool ~target plan =
    (* A deterministic derivation: run a relational plan over the current
       state's tables on the columnar substrate. The rng is unused — the
       stochasticity of a chain step lives in its vg rules. *)
    let derive _rng state =
      let catalog = Catalog.create () in
      String_map.iter (fun name t -> Catalog.register catalog name t) state;
      Plan.execute ?pool catalog plan
    in
    { target; derive }

  let transition rules rng state =
    List.fold_left
      (fun acc rule -> with_table acc rule.target (rule.derive rng acc))
      state rules
end
