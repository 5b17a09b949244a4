module Rng = Mde_prob.Rng

type sparse_row = { cols : int array; coeffs : float array; rhs : float }
type problem = { dim : int; rows : sparse_row array }

let of_tridiag a b =
  let dim = Mde_linalg.Tridiag.dim a in
  if Array.length b <> dim then invalid_arg "Sgd.of_tridiag: right-hand side length <> dimension";
  let rows =
    Array.init dim (fun i ->
        let entries = ref [] in
        if i > 0 then begin
          let v = Mde_linalg.Tridiag.row a i (i - 1) in
          if v <> 0. then entries := (i - 1, v) :: !entries
        end;
        let d = Mde_linalg.Tridiag.row a i i in
        if d <> 0. then entries := (i, d) :: !entries;
        if i < dim - 1 then begin
          let v = Mde_linalg.Tridiag.row a i (i + 1) in
          if v <> 0. then entries := (i + 1, v) :: !entries
        end;
        let entries = List.rev !entries in
        {
          cols = Array.of_list (List.map fst entries);
          coeffs = Array.of_list (List.map snd entries);
          rhs = b.(i);
        })
  in
  { dim; rows }

let row_residual row x =
  let acc = ref (-.row.rhs) in
  Array.iteri (fun k j -> acc := !acc +. (row.coeffs.(k) *. x.(j))) row.cols;
  !acc

let residual_norm problem x =
  let acc = ref 0. in
  Array.iter
    (fun row ->
      let r = row_residual row x in
      acc := !acc +. (r *. r))
    problem.rows;
  sqrt !acc

type schedule = Polynomial of { scale : float; alpha : float } | Row_normalized of float

(* One SGD step on a single row, updating x in place. [n] is the global
   iteration counter, [m] the total row count (for the paper's Y = m∇L_I
   gradient estimate under the Polynomial schedule). *)
let step_row schedule n m x row =
  let r = row_residual row x in
  match schedule with
  | Polynomial { scale; alpha } ->
    let eps = scale *. (float_of_int (n + 1) ** -.alpha) in
    let factor = -.eps *. float_of_int m *. 2. *. r in
    Array.iteri (fun k j -> x.(j) <- x.(j) +. (factor *. row.coeffs.(k))) row.cols
  | Row_normalized omega ->
    let norm2 = Array.fold_left (fun acc c -> acc +. (c *. c)) 0. row.coeffs in
    if norm2 > 0. then begin
      let factor = -.omega *. r /. norm2 in
      Array.iteri (fun k j -> x.(j) <- x.(j) +. (factor *. row.coeffs.(k))) row.cols
    end

let sgd ~rng ~schedule ~iters ?x0 problem =
  let x = match x0 with Some v -> Array.copy v | None -> Array.make problem.dim 0. in
  let m = Array.length problem.rows in
  if m = 0 then invalid_arg "Sgd.sgd: problem has no rows";
  for n = 0 to iters - 1 do
    let i = Rng.int rng m in
    step_row schedule n m x problem.rows.(i)
  done;
  x

type dsgd_result = {
  solution : float array;
  sub_epochs : int;
  rows_processed : int;
  stratum_switches : int;
  final_residual : float;
}

let tridiagonal_strata ~dim =
  if dim <= 0 then invalid_arg "Sgd.tridiagonal_strata: dim must be > 0";
  let bucket k = Array.of_list (List.filter (fun i -> i mod 3 = k) (List.init dim Fun.id)) in
  Array.of_list
    (List.filter (fun a -> Array.length a > 0) [ bucket 0; bucket 1; bucket 2 ])

let strata_independent problem strata =
  Array.for_all
    (fun stratum ->
      let used = Hashtbl.create 64 in
      Array.for_all
        (fun i ->
          Array.for_all
            (fun j ->
              if Hashtbl.mem used j then false
              else begin
                Hashtbl.add used j ();
                true
              end)
            problem.rows.(i).cols)
        stratum)
    strata

let dsgd ~rng ~schedule ~sub_epochs ?x0 ?(tol = 0.) ~strata problem =
  if Array.length strata = 0 then invalid_arg "Sgd.dsgd: no strata";
  let x = match x0 with Some v -> Array.copy v | None -> Array.make problem.dim 0. in
  let m = Array.length problem.rows in
  let n_strata = Array.length strata in
  let counter = ref 0 in
  let rows_processed = ref 0 in
  let switches = ref 0 in
  let executed = ref 0 in
  (* Regenerative stratum schedule: a fresh uniform shuffle of the strata
     per cycle gives equal long-run time in each stratum (the [21]
     convergence condition). *)
  let order = Array.init n_strata Fun.id in
  let pos = ref n_strata in
  let next_stratum () =
    if !pos >= n_strata then begin
      Rng.shuffle_in_place rng order;
      pos := 0
    end;
    let s = order.(!pos) in
    incr pos;
    s
  in
  (try
     for _ = 1 to sub_epochs do
       let s = next_stratum () in
       incr switches;
       (* Rows within a stratum touch disjoint coordinates, so this loop is
          the "parallel" part; sequential execution is equivalent. *)
       Array.iter
         (fun i ->
           step_row schedule !counter m x problem.rows.(i);
           incr counter;
           incr rows_processed)
         strata.(s);
       incr executed;
       if tol > 0. && residual_norm problem x < tol then raise Exit
     done
   with Exit -> ());
  {
    solution = x;
    sub_epochs = !executed;
    rows_processed = !rows_processed;
    stratum_switches = !switches;
    final_residual = residual_norm problem x;
  }
