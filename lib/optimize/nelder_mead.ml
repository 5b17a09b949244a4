type result = {
  x : float array;
  f : float;
  iterations : int;
  evaluations : int;
  converged : bool;
}

let minimize ?(max_iter = 1000) ?(tol = 1e-8) ?(step = 0.5) ~f ~x0 () =
  let n = Array.length x0 in
  if n < 1 then invalid_arg "Nelder_mead.minimize: x0 must have at least one coordinate";
  let evals = ref 0 in
  let eval x =
    incr evals;
    f x
  in
  (* Initial simplex: x0 plus n perturbed vertices. *)
  let vertices =
    Array.init (n + 1) (fun i ->
        let v = Array.copy x0 in
        if i > 0 then begin
          let j = i - 1 in
          let d = Float.max step (0.05 *. Float.abs v.(j)) in
          v.(j) <- v.(j) +. d
        end;
        v)
  in
  let values = Array.map eval vertices in
  let order () =
    let idx = Array.init (n + 1) Fun.id in
    Array.sort (fun a b -> Float.compare values.(a) values.(b)) idx;
    idx
  in
  let iterations = ref 0 in
  let converged = ref false in
  let simplex_diameter best =
    let worst_d = ref 0. in
    Array.iter
      (fun v ->
        for j = 0 to n - 1 do
          worst_d := Float.max !worst_d (Float.abs (v.(j) -. vertices.(best).(j)))
        done)
      vertices;
    !worst_d
  in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    let idx = order () in
    let best = idx.(0) and worst = idx.(n) and second_worst = idx.(n - 1) in
    let flat = Float.abs (values.(worst) -. values.(best)) <= tol in
    let tiny = simplex_diameter best <= 1e-9 *. (1. +. Float.abs vertices.(best).(0)) in
    if flat && tiny then converged := true
    else if flat then begin
      (* A flat simplex that is still wide (e.g. symmetric plateaus of
         |x − c|): shrink toward the best vertex to force progress. *)
      Array.iteri
        (fun i v ->
          if i <> best then begin
            vertices.(i) <-
              Array.init n (fun j -> (0.5 *. vertices.(best).(j)) +. (0.5 *. v.(j)));
            values.(i) <- eval vertices.(i)
          end)
        vertices
    end
    else begin
      (* Centroid of all but the worst vertex. *)
      let centroid = Array.make n 0. in
      Array.iteri
        (fun rank i ->
          if rank < n + 1 && i <> worst then
            Array.iteri
              (fun j xj -> centroid.(j) <- centroid.(j) +. (xj /. float_of_int n))
              vertices.(i))
        idx;
      let combine a wa b wb = Array.init n (fun j -> (wa *. a.(j)) +. (wb *. b.(j))) in
      let reflected = combine centroid 2. vertices.(worst) (-1.) in
      let fr = eval reflected in
      if fr < values.(best) then begin
        let expanded = combine centroid 3. vertices.(worst) (-2.) in
        let fe = eval expanded in
        if fe < fr then begin
          vertices.(worst) <- expanded;
          values.(worst) <- fe
        end
        else begin
          vertices.(worst) <- reflected;
          values.(worst) <- fr
        end
      end
      else if fr < values.(second_worst) then begin
        vertices.(worst) <- reflected;
        values.(worst) <- fr
      end
      else begin
        let contracted = combine centroid 0.5 vertices.(worst) 0.5 in
        let fc = eval contracted in
        if fc < values.(worst) then begin
          vertices.(worst) <- contracted;
          values.(worst) <- fc
        end
        else begin
          (* Shrink everything toward the best vertex. *)
          Array.iteri
            (fun i v ->
              if i <> best then begin
                vertices.(i) <- combine vertices.(best) 0.5 v 0.5;
                values.(i) <- eval vertices.(i)
              end)
            vertices
        end
      end
    end
  done;
  let idx = order () in
  {
    x = Array.copy vertices.(idx.(0));
    f = values.(idx.(0));
    iterations = !iterations;
    evaluations = !evals;
    converged = !converged;
  }

let minimize_box ?max_iter ?tol ~bounds ~f ~x0 () =
  let clamp x =
    Array.mapi
      (fun j v ->
        let lo, hi = bounds.(j) in
        Float.max lo (Float.min hi v))
      x
  in
  let result = minimize ?max_iter ?tol ~f:(fun x -> f (clamp x)) ~x0:(clamp x0) () in
  { result with x = clamp result.x }
