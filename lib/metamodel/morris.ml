module Rng = Mde_prob.Rng

type factor_stats = { factor : int; mu_star : float; mu : float; sigma : float }
type result = { stats : factor_stats array; runs_used : int; ranked : int list }

let screen ?(levels = 4) ?(trajectories = 10) ~rng ~factors ~simulate () =
  if factors < 1 || levels < 2 || levels mod 2 <> 0 || trajectories < 1 then
    invalid_arg "Morris.screen: needs factors >= 1, an even levels >= 2 and trajectories >= 1";
  let p = float_of_int levels in
  let delta = p /. (2. *. (p -. 1.)) in
  let runs = ref 0 in
  let evaluate x =
    incr runs;
    simulate x
  in
  (* Per-factor elementary-effect samples. *)
  let effects = Array.make factors [] in
  for _ = 1 to trajectories do
    (* Random base point on the grid, restricted so that +delta stays in
       the unit cube. *)
    let base =
      Array.init factors (fun _ ->
          let max_level = Float.to_int ((p -. 1.) *. (1. -. delta)) in
          float_of_int (Rng.int rng (max_level + 1)) /. (p -. 1.))
    in
    let order = Rng.permutation rng factors in
    let x = Array.copy base in
    let y = ref (evaluate x) in
    Array.iter
      (fun j ->
        x.(j) <- x.(j) +. delta;
        let y' = evaluate x in
        effects.(j) <- ((y' -. !y) /. delta) :: effects.(j);
        y := y')
      order
  done;
  let stats =
    Array.mapi
      (fun factor samples ->
        let arr = Array.of_list samples in
        {
          factor;
          mu_star = Mde_prob.Stats.mean (Array.map Float.abs arr);
          mu = Mde_prob.Stats.mean arr;
          sigma = Mde_prob.Stats.std arr;
        })
      effects
  in
  let ranked =
    List.sort
      (fun a b -> Float.compare stats.(b).mu_star stats.(a).mu_star)
      (List.init factors Fun.id)
  in
  { stats; runs_used = !runs; ranked }
