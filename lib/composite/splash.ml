open Mde_relational
module Rng = Mde_prob.Rng
module Series = Mde_timeseries.Series

type datum = Number of float | Timeseries of Series.t | Relation of Table.t

let datum_kind = function
  | Number _ -> "number"
  | Timeseries _ -> "timeseries"
  | Relation _ -> "relation"

type model = {
  name : string;
  description : string;
  inputs : string list;
  outputs : string list;
  run : Rng.t -> datum list -> datum list;
}

type transform = {
  dataset : string;
  transform_name : string;
  apply : datum -> datum;
}

let time_align_transform ~dataset ~target_times =
  {
    dataset;
    transform_name = Printf.sprintf "time-align(%d ticks)" (Array.length target_times);
    apply =
      (function
      | Timeseries s -> Timeseries (fst (Mde_timeseries.Align.auto s ~target_times))
      | (Number _ | Relation _) as d ->
        invalid_arg
          (Printf.sprintf "time_align_transform %s: expected a timeseries, got %s"
             dataset (datum_kind d)));
  }

let schema_map_transform ~dataset mapping =
  {
    dataset;
    transform_name = "schema-map";
    apply =
      (function
      | Relation t -> Relation (Mde_timeseries.Schema_map.apply mapping t)
      | (Number _ | Timeseries _) as d ->
        invalid_arg
          (Printf.sprintf "schema_map_transform %s: expected a relation, got %s"
             dataset (datum_kind d)));
  }

let resample_transform ~dataset ~step =
  if not (step > 0.) then invalid_arg "Splash.resample_transform: step must be > 0";
  {
    dataset;
    transform_name = Printf.sprintf "resample(step=%g)" step;
    apply =
      (function
      | Timeseries s ->
        let t0 = Series.start_time s and t1 = Series.end_time s in
        let count = Stdlib.max 1 (1 + Float.to_int (floor ((t1 -. t0) /. step))) in
        let target_times = Series.regular_times ~start:t0 ~step ~count in
        Timeseries (fst (Mde_timeseries.Align.auto s ~target_times))
      | (Number _ | Relation _) as d ->
        invalid_arg
          (Printf.sprintf "resample_transform %s: expected a timeseries, got %s"
             dataset (datum_kind d)));
  }

type composite = {
  composite_name : string;
  models : model list;
  transforms : transform list;
  order : string list;  (* topological model order, fixed at composition *)
}

let topological_order models =
  (* Producer map: dataset -> model name. *)
  let producer = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun ds ->
          if Hashtbl.mem producer ds then
            invalid_arg
              (Printf.sprintf "Splash.compose: dataset %S has two producers" ds);
          Hashtbl.add producer ds m.name)
        m.outputs)
    models;
  (* Model dependency edges via produced inputs. *)
  let by_name = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace by_name m.name m) models;
  let visiting = Hashtbl.create 16 and done_ = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit name =
    if Hashtbl.mem done_ name then ()
    else if Hashtbl.mem visiting name then
      invalid_arg
        (Printf.sprintf "Splash.compose: cyclic dependency through model %S" name)
    else begin
      Hashtbl.add visiting name ();
      let m = Hashtbl.find by_name name in
      List.iter
        (fun ds ->
          match Hashtbl.find_opt producer ds with
          | Some producer_name when producer_name <> name -> visit producer_name
          | Some _ | None -> ())
        m.inputs;
      Hashtbl.remove visiting name;
      Hashtbl.add done_ name ();
      order := name :: !order
    end
  in
  List.iter (fun m -> visit m.name) models;
  List.rev !order

let compose ~name ~models ~transforms =
  let order = topological_order models in
  let produced = Hashtbl.create 16 in
  List.iter (fun m -> List.iter (fun ds -> Hashtbl.replace produced ds ()) m.outputs) models;
  List.iter
    (fun tr ->
      if not (Hashtbl.mem produced tr.dataset) then
        invalid_arg
          (Printf.sprintf
             "Splash.compose: transform %S targets dataset %S which no model produces"
             tr.transform_name tr.dataset))
    transforms;
  { composite_name = name; models; transforms; order }

let execution_order c = c.order

let execute_timed c rng ~inputs =
  let store : (string, datum) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (nm, d) -> Hashtbl.replace store nm d) inputs;
  let transforms_for ds = List.filter (fun tr -> tr.dataset = ds) c.transforms in
  let by_name = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace by_name m.name m) c.models;
  let costs = ref [] in
  List.iter
    (fun model_name ->
      let m = Hashtbl.find by_name model_name in
      let fetch ds =
        match Hashtbl.find_opt store ds with
        | Some d -> d
        | None ->
          invalid_arg
            (Printf.sprintf
               "Splash.execute: model %S needs dataset %S, which is neither \
                supplied nor produced upstream"
               m.name ds)
      in
      let ins = List.map fetch m.inputs in
      let started = Sys.time () in
      let outs = m.run rng ins in
      costs := (m.name, Sys.time () -. started) :: !costs;
      if List.length outs <> List.length m.outputs then
        invalid_arg
          (Printf.sprintf "Splash.execute: model %S declared %d outputs, produced %d"
             m.name (List.length m.outputs) (List.length outs));
      List.iter2
        (fun ds d ->
          (* Run every registered transformation on the fresh dataset, so
             downstream consumers see harmonized data. *)
          let d = List.fold_left (fun d tr -> tr.apply d) d (transforms_for ds) in
          Hashtbl.replace store ds d)
        m.outputs outs)
    c.order;
  ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) store []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b),
    List.rev !costs )

let execute c rng ~inputs = fst (execute_timed c rng ~inputs)

let monte_carlo c rng ~inputs ~reps ~query =
  if reps < 1 then invalid_arg "Splash.monte_carlo: reps must be >= 1";
  let streams = Rng.split_n rng reps in
  Array.init reps (fun r -> query (execute c streams.(r) ~inputs))
