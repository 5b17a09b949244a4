module Rng = Mde_prob.Rng

type result = { x : float array; f : float; evaluations : int }

let random_search ~rng ~bounds ~f ~evaluations =
  if evaluations <= 0 then invalid_arg "Search.random_search: evaluations must be at least 1";
  let dim = Array.length bounds in
  let best_x = ref [||] and best_f = ref infinity in
  for _ = 1 to evaluations do
    let x =
      Array.init dim (fun j ->
          let lo, hi = bounds.(j) in
          Rng.float_range rng lo hi)
    in
    let v = f x in
    if v < !best_f then begin
      best_f := v;
      best_x := x
    end
  done;
  { x = !best_x; f = !best_f; evaluations }

let grid_search ~bounds ~f ~points_per_dim =
  if points_per_dim < 2 then invalid_arg "Search.grid_search: points_per_dim must be at least 2";
  let dim = Array.length bounds in
  let level j k =
    let lo, hi = bounds.(j) in
    lo +. ((hi -. lo) *. float_of_int k /. float_of_int (points_per_dim - 1))
  in
  let best_x = ref [||] and best_f = ref infinity in
  let count = ref 0 in
  let x = Array.make dim 0. in
  let rec go j =
    if j = dim then begin
      incr count;
      let v = f x in
      if v < !best_f then begin
        best_f := v;
        best_x := Array.copy x
      end
    end
    else
      for k = 0 to points_per_dim - 1 do
        x.(j) <- level j k;
        go (j + 1)
      done
  in
  go 0;
  { x = !best_x; f = !best_f; evaluations = !count }
