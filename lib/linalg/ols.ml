type fit = {
  coefficients : Vec.t;
  residual_sum_of_squares : float;
  r_squared : float;
  n_observations : int;
}

let normal_matrix ?(ridge = 0.) x =
  let p = Mat.cols x in
  let xtx = Mat.mul (Mat.transpose x) x in
  if ridge > 0. then
    for j = 0 to p - 1 do
      Mat.set xtx j j (Mat.get xtx j j +. ridge)
    done;
  xtx

let fit ?(ridge = 0.) x y =
  let n = Mat.rows x and p = Mat.cols x in
  if Array.length y <> n then invalid_arg "Ols.fit: y length differs from the rows of x";
  if p = 0 || n < p then invalid_arg "Ols.fit: x needs columns and at least as many rows";
  let xtx = normal_matrix ~ridge x in
  let xty = Mat.trans_mul_vec x y in
  let coefficients =
    match Mat.cholesky_solve xtx xty with
    | beta -> beta
    | exception Failure _ -> Mat.lu_solve xtx xty
  in
  let fitted = Mat.mul_vec x coefficients in
  let rss = ref 0. in
  for i = 0 to n - 1 do
    let d = y.(i) -. fitted.(i) in
    rss := !rss +. (d *. d)
  done;
  let y_mean = Vec.sum y /. float_of_int n in
  let tss = ref 0. in
  Array.iter
    (fun yi ->
      let d = yi -. y_mean in
      tss := !tss +. (d *. d))
    y;
  let r_squared = if !tss > 0. then 1. -. (!rss /. !tss) else 1. in
  { coefficients; residual_sum_of_squares = !rss; r_squared; n_observations = n }

let predict f row = Vec.dot f.coefficients row

let predict_all f x = Mat.mul_vec x f.coefficients

let standard_errors x _y f =
  let n = Mat.rows x and p = Mat.cols x in
  if n <= p then invalid_arg "Ols.standard_errors: x needs more rows than columns";
  let sigma2 = f.residual_sum_of_squares /. float_of_int (n - p) in
  let inv = Mat.inverse (normal_matrix x) in
  Array.init p (fun j -> sqrt (sigma2 *. Mat.get inv j j))
