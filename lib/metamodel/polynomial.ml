module Mat = Mde_linalg.Mat
module Ols = Mde_linalg.Ols

type term = int list

let terms_up_to ~factors ~order =
  if factors < 1 || order < 0 then
    invalid_arg "Polynomial.terms_up_to: needs factors >= 1 and order >= 0";
  (* Generate all sorted index subsets of size <= order, graded. *)
  let rec subsets k start =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun i -> List.map (fun rest -> i :: rest) (subsets (k - 1) (i + 1)))
        (List.init (factors - start) (fun d -> start + d))
  in
  List.concat_map (fun k -> subsets k 0) (List.init (order + 1) Fun.id)

let term_value term x = List.fold_left (fun acc i -> acc *. x.(i)) 1. term

type fit = {
  terms : term list;
  ols : Ols.fit;
}

let fit ~terms ~design ~response =
  if Array.length response <> Design.runs design then
    invalid_arg "Polynomial.fit: needs one response per design run";
  let x =
    Mat.init (Design.runs design) (List.length terms) (fun i j ->
        term_value (List.nth terms j) design.(i))
  in
  { terms; ols = Ols.fit x response }

let coefficients f =
  List.mapi (fun j t -> (t, f.ols.Ols.coefficients.(j))) f.terms

let coefficient f term =
  match List.find_opt (fun (t, _) -> t = term) (coefficients f) with
  | Some (_, c) -> c
  | None -> raise Not_found

let predict f x =
  List.fold_left2
    (fun acc t j -> acc +. (f.ols.Ols.coefficients.(j) *. term_value t x))
    0. f.terms
    (List.init (List.length f.terms) Fun.id)

let r_squared f = f.ols.Ols.r_squared

type main_effect = {
  factor : int;
  low_mean : float;
  high_mean : float;
  effect : float;
}

let main_effects ~design ~response =
  let k = Design.factors design in
  Array.init k (fun j ->
      let lows = ref [] and highs = ref [] in
      Array.iteri
        (fun i row ->
          if row.(j) < 0. then lows := response.(i) :: !lows
          else highs := response.(i) :: !highs)
        design;
      let mean l =
        match l with
        | [] -> nan
        | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
      in
      let low_mean = mean !lows and high_mean = mean !highs in
      { factor = j; low_mean; high_mean; effect = high_mean -. low_mean })

let main_effects_plot effects =
  let buf = Buffer.create 1024 in
  let all =
    Array.to_list effects
    |> List.concat_map (fun e -> [ e.low_mean; e.high_mean ])
  in
  let lo = List.fold_left Float.min infinity all in
  let hi = List.fold_left Float.max neg_infinity all in
  let span = if hi > lo then hi -. lo else 1. in
  let height = 9 in
  let row_of v =
    height - 1 - Float.to_int (Float.round ((v -. lo) /. span *. float_of_int (height - 1)))
  in
  let k = Array.length effects in
  let width = k * 8 in
  let canvas = Array.make_matrix height width ' ' in
  Array.iteri
    (fun j e ->
      let c0 = (j * 8) + 1 and c1 = (j * 8) + 5 in
      canvas.(row_of e.low_mean).(c0) <- 'o';
      canvas.(row_of e.high_mean).(c1) <- 'o';
      (* Slope mark between the two points. *)
      let mid_row = (row_of e.low_mean + row_of e.high_mean) / 2 in
      let slope_char =
        if e.effect > 0. then '/' else if e.effect < 0. then '\\' else '-'
      in
      canvas.(mid_row).((c0 + c1) / 2) <- slope_char)
    effects;
  Array.iter
    (fun row ->
      Buffer.add_string buf (String.init width (fun i -> row.(i)));
      Buffer.add_char buf '\n')
    canvas;
  Array.iteri
    (fun j _ -> Buffer.add_string buf (Printf.sprintf "  x%-5d " (j + 1)))
    effects;
  Buffer.add_char buf '\n';
  Array.iter
    (fun e ->
      Buffer.add_string buf (Printf.sprintf "%3.1f/%3.1f " e.low_mean e.high_mean))
    effects;
  Buffer.add_char buf '\n';
  Buffer.contents buf

type half_normal_point = { term_hn : term; abs_effect : float; quantile : float }

let half_normal f =
  let effects =
    List.filter (fun (t, _) -> t <> []) (coefficients f)
    |> List.map (fun (t, c) -> (t, Float.abs c))
    |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
  in
  let n = List.length effects in
  List.mapi
    (fun i (t, a) ->
      (* Half-normal plotting position of Daniel [14]. *)
      let p = 0.5 +. ((float_of_int i +. 0.5) /. (2. *. float_of_int n)) in
      { term_hn = t; abs_effect = a; quantile = Mde_prob.Special.normal_inv_cdf p })
    effects

let significant_terms ?(multiplier = 2.5) f =
  let points = half_normal f in
  let abs_effects = List.map (fun p -> p.abs_effect) points in
  match abs_effects with
  | [] -> []
  | _ ->
    let median = Mde_prob.Stats.median (Array.of_list abs_effects) in
    let cutoff = multiplier *. Float.max median 1e-12 in
    List.filter_map
      (fun p -> if p.abs_effect > cutoff then Some p.term_hn else None)
      points
