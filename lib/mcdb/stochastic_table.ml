open Mde_relational

type t = {
  name : string;
  schema : Schema.t;
  driver : Table.t;
  vg : Vg.t;
  params : Table.row -> Table.t list;
  combine : Table.row -> Table.row -> Table.row;
}

let define ~name ~schema ~driver ~vg ~params ~combine =
  { name; schema; driver; vg; params; combine }

let name t = t.name
let schema t = t.schema
let vg t = t.vg
let driver t = t.driver

let fingerprint t =
  Format.asprintf "%s{vg=%s;schema=%a;driver=%d}" t.name t.vg.Vg.name Schema.pp
    t.schema
    (Table.cardinality t.driver)

let generate_for_row t rng driver_row =
  let param_tables = t.params driver_row in
  let vg_rows = t.vg.Vg.generate rng param_tables in
  List.map (fun vg_row -> t.combine driver_row vg_row) vg_rows

let driver_params t = Array.map t.params (Table.rows t.driver)

(* Where output column [j]'s cells come from so far. *)
type source =
  | Undecided  (** no output row yet *)
  | Pass of int
      (** every cell has been physically cell [k] of its driver row, so
          the column is the driver's column [k] *)
  | Own of Column.builder  (** the cells are pushed as they arrive *)

let realize ?params ~one_row t rng =
  let cols = Schema.column_array t.schema in
  let arity = Array.length cols in
  let dcols = Schema.column_array (Table.schema t.driver) in
  let drows = Table.rows t.driver in
  let n_driver = Array.length drows in
  let sources = Array.make arity Undecided in
  let n = ref 0 in
  (* Output row [m] came from driver row [m] while every driver row has
     emitted exactly one row; from the first that does not, [origin]
     records each output row's driver row. *)
  let origin = ref None in
  let origin_of m = match !origin with None -> m | Some o -> o.(m) in
  let track i =
    match !origin with
    | None -> ()
    | Some o ->
      let o =
        if !n < Array.length o then o
        else begin
          let bigger = Array.make (2 * Array.length o) 0 in
          Array.blit o 0 bigger 0 !n;
          origin := Some bigger;
          bigger
        end
      in
      o.(!n) <- i
  in
  let own j = Column.builder ~ty:cols.(j).ty ~det:true ~reps:1 ~rows:(max n_driver 1) in
  (* A mistyped cell raises exactly what [Table.of_rows] raises on its
     row: the shared driver cells before it are well typed. *)
  let push row b v =
    try Column.push b v with Column.Untyped -> Table.check_row t.schema row
  in
  let emit d row =
    if Array.length row <> arity then Table.check_row t.schema row;
    for j = 0 to arity - 1 do
      let v = row.(j) in
      match sources.(j) with
      | Own b -> push row b v
      | Pass k ->
        if v != d.(k) then begin
          let b = own j in
          for m = 0 to !n - 1 do
            Column.push b drows.(origin_of m).(k)
          done;
          push row b v;
          sources.(j) <- Own b
        end
      | Undecided ->
        let rec find k =
          if k = Array.length d then begin
            let b = own j in
            push row b v;
            Own b
          end
          else if d.(k) == v && dcols.(k).ty = cols.(j).ty then Pass k
          else find (k + 1)
        in
        sources.(j) <- find 0
    done;
    incr n
  in
  let rec combine_all i d = function
    | [] -> ()
    | vg_row :: rest ->
      let row = t.combine d vg_row in
      track i;
      emit d row;
      combine_all i d rest
  in
  for i = 0 to n_driver - 1 do
    let d = drows.(i) in
    let ps = match params with Some ps -> ps.(i) | None -> t.params d in
    let vg_rows = t.vg.Vg.generate rng ps in
    (match vg_rows with
    | [ _ ] -> ()
    | _ ->
      if one_row then
        invalid_arg
          (Printf.sprintf "Stochastic_table: VG %S emitted %d rows for one driver row (expected 1)"
             t.vg.Vg.name (List.length vg_rows));
      if Option.is_none !origin then origin := Some (Array.init (max 16 (2 * !n)) Fun.id));
    combine_all i d vg_rows
  done;
  let n = !n in
  (* Pass-through columns share the driver's cached columns; when the
     rows did not map one to one, through one gather view per column
     over a common index. *)
  let passed =
    lazy
      (match !origin with
      | None -> Table.columns t.driver
      | Some o -> Column.gather (Table.columns t.driver) (Array.sub o 0 n))
  in
  ( n,
    Array.mapi
      (fun j -> function
        | Pass k -> (Lazy.force passed).(k)
        | Own b -> Column.finish b
        | Undecided -> Column.finish (own j))
      sources )

let instantiate t rng =
  let n, cols = realize ~one_row:false t rng in
  Table.of_columns t.schema ~rows:n cols

let instantiate_many ?pool t rng n =
  (* Not an assert: validation must survive [-noassert] builds. *)
  if n <= 0 then invalid_arg "Stochastic_table.instantiate_many: n must be positive";
  (* One split stream per realization, so the naive path parallelizes
     with bit-identical output to its sequential run. *)
  let streams = Mde_prob.Rng.split_n rng n in
  Mde_par.Pool.init ?pool ~site:"mcdb.instantiate" n (fun r -> instantiate t streams.(r))
