type cell = { id : int; dim : int }

type t = {
  by_id : (int, cell) Hashtbl.t;
  by_dim : (int, cell list ref) Hashtbl.t;
  up_of : (int, int list ref) Hashtbl.t;  (* x -> ys with x ≤ y *)
  down_of : (int, int list ref) Hashtbl.t;  (* y -> xs with x ≤ y *)
}

let create ~cells ~incidence =
  let by_id = Hashtbl.create 64 in
  let by_dim = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if Hashtbl.mem by_id c.id then
        invalid_arg (Printf.sprintf "Grid.create: duplicate cell id %d" c.id);
      Hashtbl.add by_id c.id c;
      match Hashtbl.find_opt by_dim c.dim with
      | Some l -> l := c :: !l
      | None -> Hashtbl.add by_dim c.dim (ref [ c ]))
    cells;
  let up_of = Hashtbl.create 64 and down_of = Hashtbl.create 64 in
  let push table key v =
    match Hashtbl.find_opt table key with
    | Some l -> l := v :: !l
    | None -> Hashtbl.add table key (ref [ v ])
  in
  List.iter
    (fun (x, y) ->
      let cx =
        match Hashtbl.find_opt by_id x with
        | Some c -> c
        | None -> invalid_arg (Printf.sprintf "Grid.create: unknown cell %d" x)
      and cy =
        match Hashtbl.find_opt by_id y with
        | Some c -> c
        | None -> invalid_arg (Printf.sprintf "Grid.create: unknown cell %d" y)
      in
      if cx.dim >= cy.dim then
        invalid_arg
          (Printf.sprintf "Grid.create: incidence %d ≤ %d violates dim(%d) < dim(%d)"
             x y x y);
      push up_of x y;
      push down_of y x)
    incidence;
  { by_id; by_dim; up_of; down_of }

let dims t =
  List.sort Int.compare (Hashtbl.fold (fun d _ acc -> d :: acc) t.by_dim [])

let cells_of_dim t dim =
  match Hashtbl.find_opt t.by_dim dim with
  | Some l ->
    let arr = Array.of_list !l in
    Array.sort (fun a b -> Int.compare a.id b.id) arr;
    arr
  | None -> [||]

let cell_count t = Hashtbl.length t.by_id

let dim_of t id =
  match Hashtbl.find_opt t.by_id id with
  | Some c -> c.dim
  | None -> raise Not_found

let up t id =
  match Hashtbl.find_opt t.up_of id with
  | Some l -> List.sort Int.compare !l
  | None -> []

let down t id =
  match Hashtbl.find_opt t.down_of id with
  | Some l -> List.sort Int.compare !l
  | None -> []

let leq t x y =
  x = y || (Hashtbl.mem t.by_id x && List.mem y (up t x))

let sub_grid t ~keep =
  let cells =
    Hashtbl.fold (fun _ c acc -> if keep c then c :: acc else acc) t.by_id []
  in
  let kept = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.add kept c.id ()) cells;
  let incidence =
    Hashtbl.fold
      (fun x ys acc ->
        if Hashtbl.mem kept x then
          List.fold_left
            (fun acc y -> if Hashtbl.mem kept y then (x, y) :: acc else acc)
            acc !ys
        else acc)
      t.up_of []
  in
  create ~cells ~incidence

let regular_2d ~nx ~ny =
  if nx < 1 || ny < 1 then invalid_arg "Grid.regular_2d: nx and ny must be at least 1";
  (* Vertices: (nx+1)(ny+1); horizontal edges: nx(ny+1); vertical edges:
     (nx+1)ny; faces: nx·ny. Ids are assigned in that order. *)
  let vid i j = (j * (nx + 1)) + i in
  let n_v = (nx + 1) * (ny + 1) in
  let hid i j = n_v + (j * nx) + i in
  let n_h = nx * (ny + 1) in
  let vidg i j = n_v + n_h + (j * (nx + 1)) + i in
  let n_ve = (nx + 1) * ny in
  let fid i j = n_v + n_h + n_ve + (j * nx) + i in
  let cells = ref [] in
  for j = 0 to ny do
    for i = 0 to nx do
      cells := { id = vid i j; dim = 0 } :: !cells
    done
  done;
  for j = 0 to ny do
    for i = 0 to nx - 1 do
      cells := { id = hid i j; dim = 1 } :: !cells
    done
  done;
  for j = 0 to ny - 1 do
    for i = 0 to nx do
      cells := { id = vidg i j; dim = 1 } :: !cells
    done
  done;
  for j = 0 to ny - 1 do
    for i = 0 to nx - 1 do
      cells := { id = fid i j; dim = 2 } :: !cells
    done
  done;
  let incidence = ref [] in
  (* Vertex ≤ incident edges. *)
  for j = 0 to ny do
    for i = 0 to nx - 1 do
      incidence := (vid i j, hid i j) :: (vid (i + 1) j, hid i j) :: !incidence
    done
  done;
  for j = 0 to ny - 1 do
    for i = 0 to nx do
      incidence := (vid i j, vidg i j) :: (vid i (j + 1), vidg i j) :: !incidence
    done
  done;
  (* Edge ≤ bounding face, vertex ≤ face. *)
  for j = 0 to ny - 1 do
    for i = 0 to nx - 1 do
      let f = fid i j in
      incidence :=
        (hid i j, f) :: (hid i (j + 1), f) :: (vidg i j, f) :: (vidg (i + 1) j, f)
        :: (vid i j, f) :: (vid (i + 1) j, f) :: (vid i (j + 1), f)
        :: (vid (i + 1) (j + 1), f) :: !incidence
    done
  done;
  create ~cells:!cells ~incidence:!incidence
