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

(* Where output column [j]'s cells come from so far. *)
type source =
  | Undecided  (** no output row yet *)
  | Pass of int
      (** every cell has been physically cell [k] of its driver row, so
          the column is the driver's column [k] *)
  | Own of Column.builder  (** the cells are pushed as they arrive *)

let realize ~one_row t streams =
  let reps = Array.length streams in
  if reps < 1 then invalid_arg "Stochastic_table.realize: no streams";
  if reps > 1 && not one_row then
    invalid_arg "Stochastic_table.realize: several streams need ~one_row:true";
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
  (* Row-major: output row [m]'s cells for streams [0 .. reps - 1] sit
     side by side, as the bundle stores them. *)
  let own j =
    Column.builder ~ty:cols.(j).ty ~det:(reps = 1) ~reps ~rows:(max n_driver 1)
  in
  (* A mistyped cell raises exactly what [Table.of_rows] raises on its
     row: the shared driver cells before it are well typed. *)
  let push row b v =
    try Column.push b v
    with Invalid_argument _ as e ->
      Table.check_row t.schema row;
      raise e
  in
  (* Output row [!n]'s cells from stream [r]: [row], combined from
     driver row [d]. *)
  let emit d r row =
    if Array.length row <> arity then Table.check_row t.schema row;
    for j = 0 to arity - 1 do
      let v = row.(j) in
      match sources.(j) with
      | Own b -> push row b v
      | Pass k ->
        if v != d.(k) then begin
          let b = own j in
          for m = 0 to !n - 1 do
            let c = drows.(origin_of m).(k) in
            for _ = 1 to reps do
              Column.push b c
            done
          done;
          for _ = 1 to r do
            Column.push b d.(k)
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
    if r = reps - 1 then incr n
  in
  for i = 0 to n_driver - 1 do
    let d = drows.(i) in
    (* [params] takes no RNG: one evaluation serves every stream. *)
    let ps = t.params d in
    for r = 0 to reps - 1 do
      match t.vg.Vg.generate streams.(r) ps with
      | [ vg_row ] ->
        let row = t.combine d vg_row in
        track i;
        emit d r row
      | vg_rows ->
        if one_row then
          invalid_arg
            (Printf.sprintf
               "Stochastic_table: VG %S emitted %d rows for one driver row (expected 1)"
               t.vg.Vg.name (List.length vg_rows));
        (* One stream here: several need [one_row]. *)
        if Option.is_none !origin then origin := Some (Array.init (max 16 (2 * !n)) Fun.id);
        List.iter
          (fun vg_row ->
            let row = t.combine d vg_row in
            track i;
            emit d 0 row)
          vg_rows
    done
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
        | Pass k ->
          let c = (Lazy.force passed).(k) in
          if reps = 1 then c else Column.of_realizations ~ty:cols.(j).ty (Array.make reps c)
        | Own b -> Column.finish b
        | Undecided -> Column.finish (own j))
      sources )

let instantiate t rng =
  let n, cols = realize ~one_row:false t [| rng |] in
  Table.of_columns t.schema ~rows:n cols

let instantiate_many ?pool t rng n =
  (* Not an assert: validation must survive [-noassert] builds. *)
  if n <= 0 then invalid_arg "Stochastic_table.instantiate_many: n must be positive";
  (* One split stream per realization, so the naive path parallelizes
     with bit-identical output to its sequential run. *)
  let streams = Mde_prob.Rng.split_n rng n in
  Mde_par.Pool.init ?pool ~site:"mcdb.instantiate" n (fun r -> instantiate t streams.(r))
