type t = { lower : float array; diag : float array; upper : float array }

let create ~lower ~diag ~upper =
  let n = Array.length diag in
  if Array.length lower <> n || Array.length upper <> n then
    invalid_arg "Tridiag.create: bands of unequal length";
  { lower; diag; upper }

let dim t = Array.length t.diag

let solve t b =
  let n = dim t in
  if n = 0 then invalid_arg "Tridiag.solve: empty system";
  if Array.length b <> n then invalid_arg "Tridiag.solve: b length differs from the dimension";
  (* Thomas algorithm with forward sweep stored in scratch arrays. *)
  let c' = Array.make n 0. in
  let d' = Array.make n 0. in
  if t.diag.(0) = 0. then failwith "Tridiag.solve: zero pivot";
  c'.(0) <- t.upper.(0) /. t.diag.(0);
  d'.(0) <- b.(0) /. t.diag.(0);
  for i = 1 to n - 1 do
    let m = t.diag.(i) -. (t.lower.(i) *. c'.(i - 1)) in
    if m = 0. then failwith "Tridiag.solve: zero pivot";
    c'.(i) <- (if i < n - 1 then t.upper.(i) /. m else 0.);
    d'.(i) <- (b.(i) -. (t.lower.(i) *. d'.(i - 1))) /. m
  done;
  let x = Array.make n 0. in
  x.(n - 1) <- d'.(n - 1);
  for i = n - 2 downto 0 do
    x.(i) <- d'.(i) -. (c'.(i) *. x.(i + 1))
  done;
  x

let mul_vec t x =
  let n = dim t in
  if Array.length x <> n then invalid_arg "Tridiag.mul_vec: x length differs from the dimension";
  Array.init n (fun i ->
      let acc = ref (t.diag.(i) *. x.(i)) in
      if i > 0 then acc := !acc +. (t.lower.(i) *. x.(i - 1));
      if i < n - 1 then acc := !acc +. (t.upper.(i) *. x.(i + 1));
      !acc)

let row t i j =
  let n = dim t in
  if i < 0 || i >= n || j < 0 || j >= n then invalid_arg "Tridiag.row: index out of bounds";
  if j = i then t.diag.(i)
  else if j = i - 1 then t.lower.(i)
  else if j = i + 1 then t.upper.(i)
  else 0.

let to_dense t =
  let n = dim t in
  Mat.init n n (row t)

let residual_norm t x b =
  let ax = mul_vec t x in
  let acc = ref 0. in
  Array.iteri
    (fun i v ->
      let d = v -. b.(i) in
      acc := !acc +. (d *. d))
    ax;
  sqrt !acc
