type sb_result = { important : int list; runs_used : int; group_tests : int }

let sequential_bifurcation ?(threshold = 0.01) ?(replications = 1)
    ?(confidence_z = 2.) ~factors ~simulate () =
  if factors < 1 || replications < 1 then
    invalid_arg "Screening.sequential_bifurcation: needs factors >= 1 and replications >= 1";
  let cache = Hashtbl.create 64 in
  let runs = ref 0 in
  let tests = ref 0 in
  (* y(j_set): (mean, variance-of-mean) of the response with exactly the
     given factors high. Cached so the shared endpoints of adjacent groups
     are simulated once per replication. *)
  let response high_set =
    match Hashtbl.find_opt cache high_set with
    | Some stats -> stats
    | None ->
      let x =
        Array.init factors (fun j -> if List.mem j high_set then 1. else -1.)
      in
      let samples =
        Array.init replications (fun _ ->
            incr runs;
            simulate x)
      in
      let mean = Mde_prob.Stats.mean samples in
      let var_of_mean =
        if replications = 1 then 0.
        else Mde_prob.Stats.variance samples /. float_of_int replications
      in
      Hashtbl.add cache high_set (mean, var_of_mean);
      (mean, var_of_mean)
  in
  let base_mean, base_var = response [] in
  (* Aggregate half-effect of a contiguous factor group [lo..hi], with a
     noise guard when the response is replicated. *)
  let group_significant lo hi =
    incr tests;
    let high = List.init (hi - lo + 1) (fun d -> lo + d) in
    let mean, var = response high in
    let effect = (mean -. base_mean) /. 2. in
    let se = sqrt (var +. base_var) /. 2. in
    effect > threshold +. (confidence_z *. se)
  in
  let important = ref [] in
  let rec bisect lo hi =
    if group_significant lo hi then begin
      if lo = hi then important := lo :: !important
      else begin
        let mid = (lo + hi) / 2 in
        bisect lo mid;
        bisect (mid + 1) hi
      end
    end
  in
  bisect 0 (factors - 1);
  {
    important = List.sort Int.compare !important;
    runs_used = !runs;
    group_tests = !tests;
  }

type gp_screen = { theta : float array; ranked : (int * float) list }

let gp_screening ~design ~response =
  let model = Kriging.fit_mle ~design ~response () in
  let theta = Kriging.theta model in
  let ranked =
    List.sort
      (fun (_, a) (_, b) -> Float.compare b a)
      (List.mapi (fun i t -> (i, t)) (Array.to_list theta))
  in
  { theta; ranked }
