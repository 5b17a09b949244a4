module Grid = Mde_gridfields.Grid
module Gridfield = Mde_gridfields.Gridfield

let check_close eps = Alcotest.(check (float eps))

(* --- Grid --- *)

let test_regular_2d_counts () =
  let g = Grid.regular_2d ~nx:3 ~ny:2 in
  Alcotest.(check int) "vertices" 12 (Array.length (Grid.cells_of_dim g 0));
  (* Edges: 3·3 horizontal + 4·2 vertical = 17. *)
  Alcotest.(check int) "edges" 17 (Array.length (Grid.cells_of_dim g 1));
  Alcotest.(check int) "faces" 6 (Array.length (Grid.cells_of_dim g 2));
  Alcotest.(check int) "total" 35 (Grid.cell_count g);
  Alcotest.(check (list int)) "dims" [ 0; 1; 2 ] (Grid.dims g)

let test_incidence_structure () =
  let g = Grid.regular_2d ~nx:2 ~ny:2 in
  (* Every face has 4 edges + 4 vertices below it. *)
  Array.iter
    (fun (face : Grid.cell) ->
      let below = Grid.down g face.Grid.id in
      let edges = List.filter (fun c -> Grid.dim_of g c = 1) below in
      let verts = List.filter (fun c -> Grid.dim_of g c = 0) below in
      Alcotest.(check int) "4 edges" 4 (List.length edges);
      Alcotest.(check int) "4 vertices" 4 (List.length verts))
    (Grid.cells_of_dim g 2);
  (* Interior vertex of a 2x2 mesh touches 4 edges and 4 faces. *)
  let interior =
    Array.to_list (Grid.cells_of_dim g 0)
    |> List.find (fun (c : Grid.cell) -> List.length (Grid.up g c.Grid.id) = 8)
  in
  Alcotest.(check bool) "leq reflexive" true (Grid.leq g interior.Grid.id interior.Grid.id)

let test_create_validation () =
  Alcotest.(check bool) "dim violation rejected" true
    (try
       ignore
         (Grid.create
            ~cells:[ { Grid.id = 0; dim = 1 }; { Grid.id = 1; dim = 0 } ]
            ~incidence:[ (0, 1) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate id rejected" true
    (try
       ignore
         (Grid.create
            ~cells:[ { Grid.id = 0; dim = 0 }; { Grid.id = 0; dim = 1 } ]
            ~incidence:[]);
       false
     with Invalid_argument _ -> true)

let test_sub_grid () =
  let g = Grid.regular_2d ~nx:2 ~ny:1 in
  let faces = Grid.cells_of_dim g 2 in
  let keep_face = faces.(0).Grid.id in
  let sub = Grid.sub_grid g ~keep:(fun c -> c.Grid.dim <> 2 || c.Grid.id = keep_face) in
  Alcotest.(check int) "one face" 1 (Array.length (Grid.cells_of_dim sub 2));
  Alcotest.(check int) "vertices kept" 6 (Array.length (Grid.cells_of_dim sub 0))

let test_up_down_vertex () =
  let g = Grid.regular_2d ~nx:1 ~ny:1 in
  let corner = (Grid.cells_of_dim g 0).(0) in
  (* A unit-square corner vertex touches 2 edges and 1 face. *)
  let ups = Grid.up g corner.Grid.id in
  Alcotest.(check int) "3 incident higher cells" 3 (List.length ups);
  let face = (Grid.cells_of_dim g 2).(0) in
  Alcotest.(check int) "face has 8 lower cells" 8
    (List.length (Grid.down g face.Grid.id));
  Alcotest.(check bool) "corner <= face" true (Grid.leq g corner.Grid.id face.Grid.id);
  Alcotest.(check bool) "face not <= corner" false (Grid.leq g face.Grid.id corner.Grid.id)

(* --- Gridfield --- *)

let face_field nx ny =
  let g = Grid.regular_2d ~nx ~ny in
  (* Bind each face its id as data (deterministic, easy to check). *)
  (g, Gridfield.bind g ~dim:2 (fun id -> float_of_int id))

let test_bind_and_value () =
  let g, f = face_field 3 3 in
  Alcotest.(check int) "9 faces" 9 (Gridfield.size f);
  let faces = Grid.cells_of_dim g 2 in
  Array.iter
    (fun (c : Grid.cell) ->
      check_close 1e-9 "value" (float_of_int c.Grid.id) (Gridfield.value f c.Grid.id))
    faces

let test_restrict () =
  let g, f = face_field 3 3 in
  let faces = Grid.cells_of_dim g 2 in
  let cutoff = float_of_int faces.(4).Grid.id in
  let restricted = Gridfield.restrict (fun v -> v >= cutoff) f in
  Alcotest.(check int) "faces kept" 5 (Gridfield.size restricted);
  (* Other dimensions survive. *)
  Alcotest.(check int) "vertices intact" 16
    (Array.length (Grid.cells_of_dim (Gridfield.grid restricted) 0))

let test_merge () =
  let _, f = face_field 2 2 in
  let merged = Gridfield.merge f f ( +. ) in
  Array.iter
    (fun id ->
      check_close 1e-9 "doubled" (2. *. Gridfield.value f id) (Gridfield.value merged id))
    (Array.to_list (Gridfield.cells merged) |> Array.of_list)

let test_aggregate_values () =
  check_close 1e-9 "avg" 2. (Gridfield.aggregate_values Gridfield.Average [ 1.; 2.; 3. ]);
  check_close 1e-9 "total" 6. (Gridfield.aggregate_values Gridfield.Total [ 1.; 2.; 3. ]);
  check_close 1e-9 "max" 3. (Gridfield.aggregate_values Gridfield.Maximum [ 1.; 2.; 3. ]);
  check_close 1e-9 "min" 1. (Gridfield.aggregate_values Gridfield.Minimum [ 1.; 2.; 3. ])

(* Regrid a fine 4x4 face field onto a coarse 2x2 target: each coarse face
   aggregates the 4 fine faces inside it. *)
let coarse_assignment fine_nx coarse_nx fine_faces coarse_faces id =
  (* Face ids are laid out row-major within their stratum. *)
  let fine_index =
    let rec find i = if fine_faces.(i).Grid.id = id then i else find (i + 1) in
    find 0
  in
  let fx = fine_index mod fine_nx and fy = fine_index / fine_nx in
  let cx = fx * coarse_nx / fine_nx and cy = fy * coarse_nx / fine_nx in
  Some coarse_faces.((cy * coarse_nx) + cx).Grid.id

let test_regrid () =
  let fine_grid = Grid.regular_2d ~nx:4 ~ny:4 in
  let coarse_grid = Grid.regular_2d ~nx:2 ~ny:2 in
  let fine_faces = Grid.cells_of_dim fine_grid 2 in
  let coarse_faces = Grid.cells_of_dim coarse_grid 2 in
  let field = Gridfield.bind fine_grid ~dim:2 (fun _ -> 1.) in
  let out, stats =
    Gridfield.regrid
      ~assignment:(coarse_assignment 4 2 fine_faces coarse_faces)
      ~aggregate:Gridfield.Total ~target:coarse_grid ~target_dim:2 field
  in
  Alcotest.(check int) "touched all" 16 stats.Gridfield.source_cells_touched;
  Alcotest.(check int) "4 targets" 4 stats.Gridfield.target_cells_bound;
  Array.iter
    (fun (c : Grid.cell) -> check_close 1e-9 "4 fine per coarse" 4. (Gridfield.value out c.Grid.id))
    coarse_faces

let test_restrict_regrid_commutation () =
  let fine_grid = Grid.regular_2d ~nx:6 ~ny:6 in
  let coarse_grid = Grid.regular_2d ~nx:3 ~ny:3 in
  let fine_faces = Grid.cells_of_dim fine_grid 2 in
  let coarse_faces = Grid.cells_of_dim coarse_grid 2 in
  let field = Gridfield.bind fine_grid ~dim:2 (fun id -> float_of_int (id mod 7)) in
  let assignment = coarse_assignment 6 3 fine_faces coarse_faces in
  (* Region: only the first 3 coarse faces. *)
  let allowed =
    Array.to_list (Array.sub coarse_faces 0 3) |> List.map (fun c -> c.Grid.id)
  in
  let region id = List.mem id allowed in
  let optimized, opt_stats =
    Gridfield.restrict_then_regrid ~region ~assignment ~aggregate:Gridfield.Average
      ~target:coarse_grid ~target_dim:2 field
  in
  let naive, naive_stats =
    Gridfield.naive_regrid_then_restrict ~region ~assignment
      ~aggregate:Gridfield.Average ~target:coarse_grid ~target_dim:2 field
  in
  (* Same answer... *)
  Alcotest.(check int) "same size" (Gridfield.size naive) (Gridfield.size optimized);
  Array.iter
    (fun id ->
      check_close 1e-9 (Printf.sprintf "cell %d" id) (Gridfield.value naive id)
        (Gridfield.value optimized id))
    (Gridfield.cells naive);
  (* ...with fewer source cells touched. *)
  Alcotest.(check bool)
    (Printf.sprintf "pushdown touches fewer (%d < %d)"
       opt_stats.Gridfield.source_cells_touched
       naive_stats.Gridfield.source_cells_touched)
    true
    (opt_stats.Gridfield.source_cells_touched
    < naive_stats.Gridfield.source_cells_touched)

let prop_commutation =
  QCheck.Test.make ~name:"restrict/regrid rewrite preserves results" ~count:30
    QCheck.(int_range 0 8)
    (fun region_size ->
      let fine_grid = Grid.regular_2d ~nx:4 ~ny:4 in
      let coarse_grid = Grid.regular_2d ~nx:2 ~ny:2 in
      let fine_faces = Grid.cells_of_dim fine_grid 2 in
      let coarse_faces = Grid.cells_of_dim coarse_grid 2 in
      let field = Gridfield.bind fine_grid ~dim:2 (fun id -> float_of_int ((id * 13) mod 11)) in
      let assignment = coarse_assignment 4 2 fine_faces coarse_faces in
      let allowed =
        Array.to_list coarse_faces
        |> List.filteri (fun i _ -> i < region_size mod (Array.length coarse_faces + 1))
        |> List.map (fun c -> c.Grid.id)
      in
      let region id = List.mem id allowed in
      let optimized, _ =
        Gridfield.restrict_then_regrid ~region ~assignment ~aggregate:Gridfield.Total
          ~target:coarse_grid ~target_dim:2 field
      in
      let naive, _ =
        Gridfield.naive_regrid_then_restrict ~region ~assignment
          ~aggregate:Gridfield.Total ~target:coarse_grid ~target_dim:2 field
      in
      Gridfield.size optimized = Gridfield.size naive
      && Array.for_all
           (fun id ->
             Float.abs (Gridfield.value optimized id -. Gridfield.value naive id) < 1e-9)
           (Gridfield.cells naive))

(* A precondition raises Invalid_argument, with or without -noassert. *)
let test_regular_2d_rejects () =
  let msg = "Grid.regular_2d: nx and ny must be at least 1" in
  Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (Grid.regular_2d ~nx:0 ~ny:2))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mde_gridfields"
    [
      ( "grid",
        [
          Alcotest.test_case "regular 2d counts" `Quick test_regular_2d_counts;
          Alcotest.test_case "incidence" `Quick test_incidence_structure;
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "sub grid" `Quick test_sub_grid;
          Alcotest.test_case "up/down/leq" `Quick test_up_down_vertex;
          Alcotest.test_case "regular 2d rejects" `Quick test_regular_2d_rejects;
        ] );
      ( "gridfield",
        [
          Alcotest.test_case "bind/value" `Quick test_bind_and_value;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "aggregations" `Quick test_aggregate_values;
          Alcotest.test_case "regrid" `Quick test_regrid;
          Alcotest.test_case "restrict/regrid commute" `Quick test_restrict_regrid_commutation;
        ] );
      ("properties", qc [ prop_commutation ]);
    ]
