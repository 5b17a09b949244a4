module Rng = Mde_prob.Rng

type t = float array array

let runs d = Array.length d
let factors d = if Array.length d = 0 then 0 else Array.length d.(0)

let full_factorial k =
  if k < 1 || k > 20 then invalid_arg "Design.full_factorial: k must be in 1..20";
  let n = 1 lsl k in
  (* Factor 0 varies fastest — the enumeration order of Figure 3. *)
  Array.init n (fun i ->
      Array.init k (fun j -> if (i lsr j) land 1 = 1 then 1. else -1.))

let fractional_factorial ~base ~generators =
  let core = full_factorial base in
  if List.exists (List.exists (fun j -> j < 0 || j >= base)) generators then
    invalid_arg "Design.fractional_factorial: a generator index is outside 0..base-1";
  Array.map
    (fun row ->
      let extra =
        List.map (fun gen -> List.fold_left (fun acc j -> acc *. row.(j)) 1. gen) generators
      in
      Array.append row (Array.of_list extra))
    core

let resolution_iii_7 () =
  fractional_factorial ~base:3 ~generators:[ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ]; [ 0; 1; 2 ] ]

let resolution_v_5 () = fractional_factorial ~base:4 ~generators:[ [ 0; 1; 2; 3 ] ]

let fold_over d = Array.append d (Array.map (Array.map (fun v -> -.v)) d)

let central_composite ?axial k =
  if k < 1 || k > 12 then invalid_arg "Design.central_composite: k must be in 1..12";
  let alpha =
    match axial with
    | Some a ->
      if not (a > 0.) then invalid_arg "Design.central_composite: axial must be positive";
      a
    | None -> (2. ** float_of_int k) ** 0.25
  in
  let corners = full_factorial k in
  let axial_points =
    Array.init (2 * k) (fun idx ->
        let j = idx / 2 and sign = if idx mod 2 = 0 then -1. else 1. in
        Array.init k (fun c -> if c = j then sign *. alpha else 0.))
  in
  Array.concat [ corners; axial_points; [| Array.make k 0. |] ]

let centered_levels r = Array.init r (fun i -> float_of_int i -. (float_of_int (r - 1) /. 2.))

let latin_hypercube ~rng ~factors ~levels =
  if factors < 1 || levels < 2 then
    invalid_arg "Design.latin_hypercube: needs factors >= 1 and levels >= 2";
  let base = centered_levels levels in
  let columns =
    Array.init factors (fun _ ->
        let perm = Rng.permutation rng levels in
        Array.map (fun i -> base.(i)) perm)
  in
  Array.init levels (fun run -> Array.init factors (fun f -> columns.(f).(run)))

let column d j = Array.map (fun row -> row.(j)) d

let max_abs_correlation d =
  let k = factors d in
  let worst = ref 0. in
  for a = 0 to k - 2 do
    for b = a + 1 to k - 1 do
      let c = Float.abs (Mde_prob.Stats.correlation (column d a) (column d b)) in
      if c > !worst then worst := c
    done
  done;
  !worst

let nearly_orthogonal_lh ~rng ~factors ~levels ~tries =
  if tries < 1 then invalid_arg "Design.nearly_orthogonal_lh: tries must be >= 1";
  let best = ref (latin_hypercube ~rng ~factors ~levels) in
  let best_score = ref (max_abs_correlation !best) in
  for _ = 2 to tries do
    let candidate = latin_hypercube ~rng ~factors ~levels in
    let score = max_abs_correlation candidate in
    if score < !best_score then begin
      best := candidate;
      best_score := score
    end
  done;
  !best

let is_latin d =
  let r = runs d in
  r >= 2
  &&
  let expected = centered_levels r in
  let sorted_equal col =
    let sorted = Array.copy col in
    Array.sort Float.compare sorted;
    Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) sorted expected
  in
  let k = factors d in
  let rec go j = j >= k || (sorted_equal (column d j) && go (j + 1)) in
  go 0

let column_orthogonal ?(tol = 1e-9) d = max_abs_correlation d <= tol

let scale d ~ranges =
  let k = factors d in
  if Array.length ranges <> k then invalid_arg "Design.scale: needs one range per factor";
  let mins = Array.init k (fun j -> Array.fold_left (fun m row -> Float.min m row.(j)) infinity d) in
  let maxs = Array.init k (fun j -> Array.fold_left (fun m row -> Float.max m row.(j)) neg_infinity d) in
  Array.map
    (fun row ->
      Array.mapi
        (fun j v ->
          let lo, hi = ranges.(j) in
          let span = maxs.(j) -. mins.(j) in
          if span = 0. then 0.5 *. (lo +. hi)
          else lo +. ((hi -. lo) *. (v -. mins.(j)) /. span))
        row)
    d

let pp ppf d =
  Format.fprintf ppf "@[<v>Run |";
  for j = 1 to factors d do
    Format.fprintf ppf " x%-3d" j
  done;
  Format.fprintf ppf "@,----+%s@," (String.make (5 * factors d) '-');
  Array.iteri
    (fun i row ->
      Format.fprintf ppf "%3d |" (i + 1);
      Array.iter
        (fun v ->
          if Float.is_integer v then Format.fprintf ppf " %4d" (Float.to_int v)
          else Format.fprintf ppf " %4.1f" v)
        row;
      Format.fprintf ppf "@,")
    d;
  Format.fprintf ppf "@]"
