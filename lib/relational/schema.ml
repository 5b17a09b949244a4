type column = { name : string; ty : Value.ty }
type t = { cols : column array; index : (string, int) Hashtbl.t }

let build cols =
  let index = Hashtbl.create (Array.length cols * 2) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem index c.name then
        invalid_arg (Printf.sprintf "Schema.create: duplicate column %S" c.name);
      Hashtbl.add index c.name i)
    cols;
  { cols; index }

let create cols = build (Array.of_list cols)
let of_list l = create (List.map (fun (name, ty) -> { name; ty }) l)
let columns t = Array.to_list t.cols
let column_array t = t.cols
let arity t = Array.length t.cols

let column_index t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> i
  | None -> raise Not_found

let mem t name = Hashtbl.mem t.index name
let column_type t name = t.cols.(column_index t name).ty
let column_names t = List.map (fun c -> c.name) (columns t)

let concat a b =
  Array.iter
    (fun c ->
      if Hashtbl.mem a.index c.name then
        invalid_arg (Printf.sprintf "Schema.concat: column %S on both sides" c.name))
    b.cols;
  build (Array.append a.cols b.cols)

let rename t renames =
  List.iter
    (fun (old_name, _) ->
      if not (Hashtbl.mem t.index old_name) then raise Not_found)
    renames;
  let renamed =
    Array.map
      (fun c ->
        match List.assoc_opt c.name renames with
        | Some fresh -> { c with name = fresh }
        | None -> c)
      t.cols
  in
  build renamed

let project t names =
  create (List.map (fun n -> t.cols.(column_index t n)) names)

let equal a b =
  arity a = arity b
  && Array.for_all2 (fun x y -> x.name = y.name && x.ty = y.ty) a.cols b.cols

let pp ppf t =
  Format.fprintf ppf "(@[%a@])"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf c -> Format.fprintf ppf "%s:%s" c.name (Value.type_name c.ty)))
    (columns t)
