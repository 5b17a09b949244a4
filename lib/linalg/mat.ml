type t = { r : int; c : int; a : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Mat.create: dimensions must be non-negative";
  { r; c; a = Array.make (r * c) 0. }

let init r c f =
  let m = create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      m.a.((i * c) + j) <- f i j
    done
  done;
  m

let of_rows rows =
  let r = Array.length rows in
  if r = 0 then invalid_arg "Mat.of_rows: no rows";
  let c = Array.length rows.(0) in
  Array.iter
    (fun row -> if Array.length row <> c then invalid_arg "Mat.of_rows: rows of unequal length")
    rows;
  init r c (fun i j -> rows.(i).(j))

let identity n = init n n (fun i j -> if i = j then 1. else 0.)
let rows m = m.r
let cols m = m.c

let get m i j =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then invalid_arg "Mat.get: index out of bounds";
  m.a.((i * m.c) + j)

let set m i j v =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then invalid_arg "Mat.set: index out of bounds";
  m.a.((i * m.c) + j) <- v

let copy m = { m with a = Array.copy m.a }
let transpose m = init m.c m.r (fun i j -> get m j i)
let row m i = Array.init m.c (fun j -> get m i j)

let add x y =
  if x.r <> y.r || x.c <> y.c then invalid_arg "Mat.add: dimensions differ";
  { x with a = Array.mapi (fun k v -> v +. y.a.(k)) x.a }

let sub x y =
  if x.r <> y.r || x.c <> y.c then invalid_arg "Mat.sub: dimensions differ";
  { x with a = Array.mapi (fun k v -> v -. y.a.(k)) x.a }

let scale s m = { m with a = Array.map (fun v -> s *. v) m.a }

let mul x y =
  if x.c <> y.r then invalid_arg "Mat.mul: inner dimensions differ";
  let out = create x.r y.c in
  for i = 0 to x.r - 1 do
    for k = 0 to x.c - 1 do
      let xik = x.a.((i * x.c) + k) in
      if xik <> 0. then
        for j = 0 to y.c - 1 do
          out.a.((i * y.c) + j) <- out.a.((i * y.c) + j) +. (xik *. y.a.((k * y.c) + j))
        done
    done
  done;
  out

let mul_vec m x =
  if m.c <> Array.length x then invalid_arg "Mat.mul_vec: vector length differs from cols";
  Array.init m.r (fun i ->
      let acc = ref 0. in
      for j = 0 to m.c - 1 do
        acc := !acc +. (m.a.((i * m.c) + j) *. x.(j))
      done;
      !acc)

let trans_mul_vec m x =
  if m.r <> Array.length x then
    invalid_arg "Mat.trans_mul_vec: vector length differs from rows";
  let out = Array.make m.c 0. in
  for i = 0 to m.r - 1 do
    let xi = x.(i) in
    if xi <> 0. then
      for j = 0 to m.c - 1 do
        out.(j) <- out.(j) +. (m.a.((i * m.c) + j) *. xi)
      done
  done;
  out

(* LU decomposition with partial pivoting (Doolittle). Returns the packed
   LU matrix, the pivot permutation, and the permutation sign. *)
let lu_decompose m =
  if m.r <> m.c then invalid_arg "Mat.lu_decompose: matrix is not square";
  let n = m.r in
  let lu = copy m in
  let piv = Array.init n (fun i -> i) in
  let sign = ref 1. in
  for k = 0 to n - 1 do
    (* Find pivot row. *)
    let pivot = ref k in
    let best = ref (Float.abs (get lu k k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (get lu i k) in
      if v > !best then begin
        best := v;
        pivot := i
      end
    done;
    if !best = 0. then failwith "Mat.lu_decompose: singular matrix";
    if !pivot <> k then begin
      for j = 0 to n - 1 do
        let tmp = get lu k j in
        set lu k j (get lu !pivot j);
        set lu !pivot j tmp
      done;
      let tmp = piv.(k) in
      piv.(k) <- piv.(!pivot);
      piv.(!pivot) <- tmp;
      sign := -. !sign
    end;
    let pivot_val = get lu k k in
    for i = k + 1 to n - 1 do
      let factor = get lu i k /. pivot_val in
      set lu i k factor;
      for j = k + 1 to n - 1 do
        set lu i j (get lu i j -. (factor *. get lu k j))
      done
    done
  done;
  (lu, piv, !sign)

let lu_back_substitute lu piv b =
  let n = rows lu in
  if Array.length b <> n then invalid_arg "Mat.lu_solve: b length differs from rows";
  let x = Array.init n (fun i -> b.(piv.(i))) in
  (* Forward: L y = Pb, L has unit diagonal. *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (get lu i j *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* Backward: U x = y. *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get lu i j *. x.(j))
    done;
    x.(i) <- !acc /. get lu i i
  done;
  x

let lu_solve m b =
  let lu, piv, _ = lu_decompose m in
  lu_back_substitute lu piv b

let lu_solve_many m b =
  if m.r <> b.r then invalid_arg "Mat.lu_solve_many: row counts differ";
  let lu, piv, _ = lu_decompose m in
  let out = create b.r b.c in
  for j = 0 to b.c - 1 do
    let col = Array.init b.r (fun i -> get b i j) in
    let x = lu_back_substitute lu piv col in
    for i = 0 to b.r - 1 do
      set out i j x.(i)
    done
  done;
  out

let inverse m = lu_solve_many m (identity m.r)

let cholesky m =
  if m.r <> m.c then invalid_arg "Mat.cholesky: matrix is not square";
  let n = m.r in
  let l = create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (get m i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (get l i k *. get l j k)
      done;
      if i = j then begin
        if !acc <= 0. then failwith "Mat.cholesky: matrix not positive definite";
        set l i j (sqrt !acc)
      end
      else set l i j (!acc /. get l j j)
    done
  done;
  l

let cholesky_solve m b =
  let n = m.r in
  if Array.length b <> n then invalid_arg "Mat.cholesky_solve: b length differs from rows";
  let l = cholesky m in
  (* Forward: L y = b. *)
  let y = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (get l i j *. y.(j))
    done;
    y.(i) <- !acc /. get l i i
  done;
  (* Backward: Lᵀ x = y. *)
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get l j i *. x.(j))
    done;
    x.(i) <- !acc /. get l i i
  done;
  x

let determinant_sign_logabs m =
  match lu_decompose m with
  | lu, _, sign ->
    let n = rows lu in
    let log_abs = ref 0. in
    let sign = ref sign in
    for i = 0 to n - 1 do
      let d = get lu i i in
      if d < 0. then sign := -. !sign;
      log_abs := !log_abs +. log (Float.abs d)
    done;
    (!sign, !log_abs)
  | exception Failure _ -> (0., neg_infinity)

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.r - 1 do
    Format.fprintf ppf "|";
    for j = 0 to m.c - 1 do
      Format.fprintf ppf " %9.4g" (get m i j)
    done;
    Format.fprintf ppf " |";
    if i < m.r - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
