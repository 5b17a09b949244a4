type t = float array

let make n x = Array.make n x
let init = Array.init
let dim = Array.length
let copy = Array.copy

let check_same_dim msg x y = if Array.length x <> Array.length y then invalid_arg msg

let add x y =
  check_same_dim "Vec.add: lengths differ" x y;
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  check_same_dim "Vec.sub: lengths differ" x y;
  Array.mapi (fun i xi -> xi -. y.(i)) x

let scale a x = Array.map (fun xi -> a *. xi) x

let dot x y =
  check_same_dim "Vec.dot: lengths differ" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let dist2 x y =
  check_same_dim "Vec.dist2: lengths differ" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let axpy a x y =
  check_same_dim "Vec.axpy: lengths differ" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let map2 f x y =
  check_same_dim "Vec.map2: lengths differ" x y;
  Array.mapi (fun i xi -> f xi y.(i)) x

let sum = Array.fold_left ( +. ) 0.

let max_abs x = Array.fold_left (fun acc xi -> Float.max acc (Float.abs xi)) 0. x

let pp ppf x =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf v -> Format.fprintf ppf "%.6g" v))
    x
