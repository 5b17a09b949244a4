type window = {
  index : int;
  s0 : float;
  d0 : float;
  s1 : float;
  d1 : float;
  sigma0 : float;
  sigma1 : float;
}

let windows ?sigma series =
  let n = Series.length series in
  if n < 2 then invalid_arg "Mr_align.windows: needs >= 2 observations";
  let times = Series.times series and values = Series.values series in
  let sigma =
    match sigma with
    | Some s ->
      if Array.length s <> n then invalid_arg "Mr_align.windows: sigma length <> series length";
      s
    | None -> Array.make n 0.
  in
  Array.init (n - 1) (fun j ->
      {
        index = j;
        s0 = times.(j);
        d0 = values.(j);
        s1 = times.(j + 1);
        d1 = values.(j + 1);
        sigma0 = sigma.(j);
        sigma1 = sigma.(j + 1);
      })

(* The paper's cubic interpolation formula, restricted to one window. With
   sigma = 0 on both ends it reduces to linear interpolation. *)
let eval_window w t =
  let h = w.s1 -. w.s0 in
  (w.sigma0 /. (6. *. h) *. ((w.s1 -. t) ** 3.))
  +. (w.sigma1 /. (6. *. h) *. ((t -. w.s0) ** 3.))
  +. (((w.d1 /. h) -. (w.sigma1 *. h /. 6.)) *. (t -. w.s0))
  +. (((w.d0 /. h) -. (w.sigma0 *. h /. 6.)) *. (w.s1 -. t))

type result = {
  target : Series.t;
  interpolation_stats : Mde_mapred.Job.stats;
  sort_stats : Mde_mapred.Job.stats;
}

let interpolate ?(partitions = 8) ~kind series ~target_times =
  let n_windows = Series.length series - 1 in
  if n_windows < 1 then invalid_arg "Mr_align.interpolate: needs >= 2 observations";
  let sigma =
    match kind with
    | `Linear -> None
    | `Cubic ->
      if Series.length series >= 3 then Some (Spline.sigma (Spline.fit series))
      else None
  in
  let ws = windows ?sigma series in
  (* Route every target time to its window up front (the "map side join"
     key assignment); boundary clamping sends out-of-range points to the
     first/last window. *)
  let targets_of_window = Array.make n_windows [] in
  Array.iter
    (fun t ->
      let j = Series.locate series t in
      targets_of_window.(j) <- t :: targets_of_window.(j))
    target_times;
  let dataset = Mde_mapred.Dataset.of_array ~partitions ws in
  let mapped, interpolation_stats =
    Mde_mapred.Job.map_reduce
      ~map:(fun w ->
        List.rev_map
          (fun t -> (w.index, (t, eval_window w t)))
          targets_of_window.(w.index))
      ~reduce:(fun _ points -> points)
      dataset
  in
  let sorted, sort_stats =
    Mde_mapred.Job.sort_by ~cmp:(fun (a, _) (b, _) -> Float.compare a b) mapped
  in
  let pairs = Mde_mapred.Dataset.to_array sorted in
  let target =
    Series.create ~times:(Array.map fst pairs) ~values:(Array.map snd pairs)
  in
  { target; interpolation_stats; sort_stats }
