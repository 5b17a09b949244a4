type row = Value.t array

(* Two images of one relation, at least one present from construction:
   the boxed row array and the typed column array (deterministic,
   reps=1). Each is filled in once, on first demand, and published with
   a compare-and-set so concurrent readers on different domains all get
   the first image built (a [Lazy] forced from two domains at once
   raises). *)
type t = {
  schema : Schema.t;
  n_rows : int;
  rows : row array option Atomic.t;
  cols : Column.t array option Atomic.t;
}

let check_cell (c : Schema.column) v =
  match Value.type_of v with
  | Some ty when ty <> c.ty ->
    invalid_arg
      (Printf.sprintf "Table: column %S expects %s, got %s" c.name (Value.type_name c.ty)
         (Value.type_name ty))
  | _ -> ()

let check_row schema row =
  let cols = Schema.column_array schema in
  if Array.length row <> Array.length cols then
    invalid_arg
      (Printf.sprintf "Table: row arity %d, schema arity %d" (Array.length row)
         (Array.length cols));
  for i = 0 to Array.length row - 1 do
    check_cell cols.(i) row.(i)
  done

let row_backed schema rows =
  {
    schema;
    n_rows = Array.length rows;
    rows = Atomic.make (Some rows);
    cols = Atomic.make None;
  }

let of_rows schema rows =
  for i = 0 to Array.length rows - 1 do
    check_row schema rows.(i)
  done;
  row_backed schema rows

(* A column's storage type is the type of every non-null cell; reading
   it forces no view. *)
let of_columns schema ~rows:n_rows cols =
  let scols = Schema.column_array schema in
  if Array.length cols <> Array.length scols then
    invalid_arg
      (Printf.sprintf "Table.of_columns: %d columns, schema arity %d" (Array.length cols)
         (Array.length scols));
  Array.iteri
    (fun j (c : Schema.column) ->
      let stored = Column.storage_ty cols.(j) in
      if stored <> c.ty then
        invalid_arg
          (Printf.sprintf "Table.of_columns: column %S expects %s, stores %s" c.name
             (Value.type_name c.ty) (Value.type_name stored)))
    scols;
  { schema; n_rows; rows = Atomic.make None; cols = Atomic.make (Some cols) }

let create schema row_list = of_rows schema (Array.of_list row_list)
let empty schema = of_rows schema [||]
let schema t = t.schema
let cardinality t = t.n_rows

(* First writer wins; a loser drops its copy and returns the winner's. *)
let publish cell build =
  match Atomic.get cell with
  | Some v -> v
  | None ->
    let v = build () in
    if Atomic.compare_and_set cell None (Some v) then v else Option.get (Atomic.get cell)

let rows t =
  publish t.rows (fun () ->
      let cols = Option.get (Atomic.get t.cols) in
      Array.init t.n_rows (fun i -> Array.map (fun c -> Column.value c i 0) cols))

let columns t =
  publish t.cols (fun () ->
      let rows = Option.get (Atomic.get t.rows) in
      Array.of_list
        (List.mapi
           (fun j (c : Schema.column) ->
             Column.of_det_cells ~ty:c.ty ~rows:t.n_rows ~reps:1 (fun i -> rows.(i).(j)))
           (Schema.columns t.schema)))

let get t i col = (rows t).(i).(Schema.column_index t.schema col)

let column t col =
  let idx = Schema.column_index t.schema col in
  Array.map (fun row -> row.(idx)) (rows t)

let column_floats t col =
  let idx = Schema.column_index t.schema col in
  Array.map (fun row -> Value.to_float row.(idx)) (rows t)

let iter f t = Array.iter f (rows t)

let append a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Table.append: schema mismatch";
  row_backed a.schema (Array.append (rows a) (rows b))

let pp ?(max_rows = 20) ppf t =
  let names = Schema.column_names t.schema in
  let shown = min max_rows (cardinality t) in
  let rows = rows t in
  let cells =
    List.map
      (fun name ->
        let idx = Schema.column_index t.schema name in
        let body = List.init shown (fun i -> Value.to_display rows.(i).(idx)) in
        name :: body)
      names
  in
  let widths = List.map (fun col -> List.fold_left (fun w s -> max w (String.length s)) 0 col) cells in
  let print_row k =
    List.iteri
      (fun j col ->
        let w = List.nth widths j in
        Format.fprintf ppf "%s%-*s" (if j = 0 then "| " else " | ") w (List.nth col k))
      cells;
    Format.fprintf ppf " |@,"
  in
  Format.fprintf ppf "@[<v>";
  print_row 0;
  List.iteri
    (fun j w ->
      Format.fprintf ppf "%s%s" (if j = 0 then "|-" else "-|-") (String.make w '-'))
    widths;
  Format.fprintf ppf "-|@,";
  for k = 1 to shown do
    print_row k
  done;
  if cardinality t > shown then Format.fprintf ppf "... (%d rows total)@," (cardinality t);
  Format.fprintf ppf "@]"
