type t =
  | Count
  | Count_if of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Std of Expr.t

let output_type = function
  | Count | Count_if _ -> Value.Tint
  | Sum _ | Avg _ | Min _ | Max _ | Std _ -> Value.Tfloat

let fingerprint = function
  | Count -> "count"
  | Count_if e -> Format.asprintf "count_if(%a)" Expr.pp e
  | Sum e -> Format.asprintf "sum(%a)" Expr.pp e
  | Avg e -> Format.asprintf "avg(%a)" Expr.pp e
  | Min e -> Format.asprintf "min(%a)" Expr.pp e
  | Max e -> Format.asprintf "max(%a)" Expr.pp e
  | Std e -> Format.asprintf "std(%a)" Expr.pp e

(* The kinds an aggregate's argument may have: a predicate is bool, a
   source a number or bool, as [Value.to_float] reads it. *)
let arg_kinds = function
  | Count_if _ -> [ Value.Tbool ]
  | Count | Sum _ | Avg _ | Min _ | Max _ | Std _ -> [ Value.Tint; Value.Tfloat; Value.Tbool ]

let check types agg =
  match agg with
  | Count -> ()
  | Count_if e | Sum e | Avg e | Min e | Max e | Std e ->
    Expr.expect (arg_kinds agg) e (Expr.type_of types e)

type compiled = { agg : t; arg : Kernel.node option }

let compile env agg =
  match agg with
  | Count -> { agg; arg = None }
  | Count_if e | Sum e | Avg e | Min e | Max e | Std e ->
    let node = Kernel.compile env e in
    Expr.expect (arg_kinds agg) e (Kernel.kind node);
    { agg; arg = Some node }

(* One aggregate's accumulators, flat over cells [g * reps + r]. [bind f
   cells] binds the aggregate's views to a frame whose kept positions map
   to cells through [cells], and returns its (fill, consume) pair over
   the kept selection; [finish c] is cell [c]'s output value. *)
type state = {
  bind : Kernel.frame -> int array -> (Kernel.selection -> unit) * (Kernel.selection -> unit);
  finish : int -> Value.t;
}

(* Count, or with a predicate, Count_if. *)
let counts ~n_cells pred =
  let count = Array.make n_cells 0 in
  let tally cells (s : Kernel.selection) =
    for j = 0 to s.n - 1 do
      let c = cells.(s.pos.(j)) in
      count.(c) <- count.(c) + 1
    done
  in
  let bind f cells =
    match pred with
    | None -> (ignore, tally cells)
    | Some node ->
      let holds, narrow = Kernel.filter node f in
      (narrow, fun _ -> tally cells holds)
  in
  { bind; finish = (fun c -> Value.Int count.(c)) }

(* [Value.to_float] of the cell at slot [r] of a column's storage. *)
let[@inline] stored_float (store : Kernel.store) r =
  match store with
  | Kernel.Sfloat d -> Bigarray.Array1.unsafe_get d r
  | Kernel.Sint d -> float_of_int (Array.unsafe_get d r)
  | Kernel.Sbool d -> if Array.unsafe_get d r <> 0 then 1. else 0.

(* Sum, Avg and Std: the count and running sum of the non-null values,
   and the sum of squares only for Std. *)
let moments ~n_cells ~squares node finish =
  let count = Array.make n_cells 0 and sum = Array.make n_cells 0.
  and sum_sq = Array.make (if squares then n_cells else 0) 0. in
  let[@inline] add c x =
    count.(c) <- count.(c) + 1;
    sum.(c) <- sum.(c) +. x;
    if squares then sum_sq.(c) <- sum_sq.(c) +. (x *. x)
  in
  let bind f cells =
    match Kernel.leaf_column node with
    | Some col ->
      (* A bare column: each kept position's cell is read where it is
         stored, with no vector in between. *)
      ( ignore,
        fun (s : Kernel.selection) ->
          let nullable = Option.is_some col.nulls and store = col.store in
          for j = 0 to s.n - 1 do
            let k = s.pos.(j) in
            if not (nullable && Kernel.null col f k) then
              add cells.(k) (stored_float store (Kernel.slot col f k))
          done )
    | None ->
      let v = Kernel.floats node f in
      ( v.fill,
        fun (s : Kernel.selection) ->
          let nullable = Bytes.length v.nulls > 0 in
          for j = 0 to s.n - 1 do
            let k = s.pos.(j) in
            if not (nullable && Bytes.unsafe_get v.nulls k <> '\000') then add cells.(k) v.data.(k)
          done )
  in
  { bind; finish = (fun c -> finish count.(c) sum.(c) (if squares then sum_sq.(c) else 0.)) }

let finish_sum _ sum _ = Value.Float sum
let finish_avg n sum _ = if n = 0 then Value.Null else Value.Float (sum /. float_of_int n)

let finish_std n sum sum_sq =
  if n < 2 then Value.Null
  else begin
    let n = float_of_int n in
    let var = (sum_sq -. (sum *. sum /. n)) /. (n -. 1.) in
    Value.Float (sqrt (Float.max var 0.))
  end

(* Min ([sign = 1]) and Max ([sign = -1]) keep [Value.compare]'s order
   and its first of equals. A node's cells are of one kind, so comparing
   their [Value.to_float] image under [Float.compare] is [Value.compare]
   and leaves the winner's float unchanged; a bare column leaf is read
   where it is stored. *)
let extremum ~n_cells ~sign node =
  let seen = Array.make n_cells false and best = Array.make n_cells 0. in
  let[@inline] offer c x =
    if (not seen.(c)) || Float.compare x best.(c) * sign < 0 then begin
      seen.(c) <- true;
      best.(c) <- x
    end
  in
  let bind f cells =
    match Kernel.leaf_column node with
    | Some col ->
      ( ignore,
        fun (s : Kernel.selection) ->
          let nullable = Option.is_some col.nulls and store = col.store in
          for j = 0 to s.n - 1 do
            let k = s.pos.(j) in
            if not (nullable && Kernel.null col f k) then
              offer cells.(k) (stored_float store (Kernel.slot col f k))
          done )
    | None ->
      let v = Kernel.floats node f in
      ( v.fill,
        fun (s : Kernel.selection) ->
          let nullable = Bytes.length v.nulls > 0 in
          for j = 0 to s.n - 1 do
            let k = s.pos.(j) in
            if not (nullable && Bytes.unsafe_get v.nulls k <> '\000') then offer cells.(k) v.data.(k)
          done )
  in
  { bind; finish = (fun c -> if seen.(c) then Value.Float best.(c) else Value.Null) }

let state ~n_cells { agg; arg } =
  let node () = Option.get arg in
  match agg with
  | Count -> counts ~n_cells None
  | Count_if _ -> counts ~n_cells arg
  | Sum _ -> moments ~n_cells ~squares:false (node ()) finish_sum
  | Avg _ -> moments ~n_cells ~squares:false (node ()) finish_avg
  | Std _ -> moments ~n_cells ~squares:true (node ()) finish_std
  | Min _ -> extremum ~n_cells ~sign:1 (node ())
  | Max _ -> extremum ~n_cells ~sign:(-1) (node ())

type result = { n_groups : int; firsts : int array; value : int -> int -> int -> Value.t }

let grouped ~pool ~site ~presence ~where ~keys ~rows ~reps aggs =
  (* Group ids in first-seen order and each group's first row; a global
     aggregate is one group, emitted even over no rows. *)
  let ids, firsts, n_groups =
    if Array.length keys = 0 then ([||], [||], 1)
    else
      let ids, firsts = Keycode.groups ?pool keys ~rows in
      (ids, firsts, Array.length firsts)
  in
  let states = Array.map (state ~n_cells:(n_groups * reps)) aggs in
  Kernel.sweep ?pool ~site ?presence ~rows ~reps (fun f ->
      let kept, keep =
        match where with Some node -> Kernel.filter node f | None -> (f.all, ignore)
      in
      (* The cell of each kept position, written once per block for every
         aggregate to read. At one slot per row, slot [lo + k] is row [lo
         + k], and a global aggregate's one cell is the 0 the array starts
         with. *)
      let cells = Array.make (Array.length f.all.pos) 0 in
      let bound = Array.map (fun st -> st.bind f cells) states in
      ( (fun () ->
          keep f.all;
          for a = 0 to Array.length bound - 1 do
            fst bound.(a) kept
          done),
        fun () ->
          let lo = f.lo in
          if reps > 1 then
            for j = 0 to kept.n - 1 do
              let k = kept.pos.(j) in
              let i = f.rowix.(k) in
              let g = if Array.length ids = 0 then 0 else ids.(i) in
              cells.(k) <- (g * reps) + lo + k - (i * reps)
            done
          else if Array.length ids > 0 then
            for j = 0 to kept.n - 1 do
              let k = kept.pos.(j) in
              cells.(k) <- ids.(lo + k)
            done;
          for a = 0 to Array.length bound - 1 do
            snd bound.(a) kept
          done ));
  { n_groups; firsts; value = (fun a g r -> states.(a).finish ((g * reps) + r)) }
