open Mde_relational
module Bitset = Column.Bitset

type t = {
  schema : Schema.t;
  n_reps : int;
  n_rows : int;
  columns : Column.t array;
  presence : Bitset.t;
}

let schema t = t.schema
let n_reps t = t.n_reps
let row_count t = t.n_rows
let survivors t = Bitset.popcount t.presence
let row_survivors t i = Bitset.row_popcount t.presence i
let realize_row t i r = Array.map (fun c -> Column.value c i r) t.columns
let present t i r = Bitset.get t.presence i r
let column t name = t.columns.(Schema.column_index t.schema name)

(* --- observability -------------------------------------------------

   With the no-op default registry the operators skip straight to the
   work — no clock reads, no registration — so instrumented runs stay
   bit-identical to uninstrumented ones. *)

let instrumented ~cells f =
  let obs = Mde_obs.default () in
  if not (Mde_obs.enabled obs) then f ()
  else
    Mde_obs.with_span obs ~name:"bundle.kernel" (fun () ->
        let t0 = Mde_obs.Clock.wall () in
        let result = f () in
        Mde_obs.Histogram.observe
          (Mde_obs.histogram obs ~help:"Wall seconds per bundle operator sweep"
             "mde_bundle_kernel_seconds")
          (Mde_obs.Clock.wall () -. t0);
        Mde_obs.Counter.add
          (Mde_obs.counter obs
             ~help:"Row-by-repetition cells swept by bundle operators"
             "mde_bundle_cells_total")
          cells;
        result)

(* --- construction -------------------------------------------------- *)

let column_types schema = Array.map (fun c -> c.Schema.ty) (Schema.column_array schema)

let of_stochastic_table ?pool st rng ~n_reps =
  if n_reps < 1 then invalid_arg "Bundle.of_stochastic_table: n_reps must be >= 1";
  let vg = Stochastic_table.vg st in
  if not vg.Vg.row_stable then
    invalid_arg
      (Printf.sprintf
         "Bundle.of_stochastic_table: VG function %S is not row-stable" vg.Vg.name);
  let out_schema = Stochastic_table.schema st in
  let n_rows = Table.cardinality (Stochastic_table.driver st) in
  (* One pre-split stream per repetition, consumed driver-row-major by
     the same routine [Stochastic_table.instantiate] runs on stream [r]
     in [instantiate_many] — so realization [r] of this bundle is naive
     instance [r] by construction. [realize] steps a run of streams in
     lock-step and writes each row's repetitions side by side: one run
     writes the final rows × reps storage. On a pool, each domain's run
     writes its own storage, null bits and string dictionary, and
     [Column.of_realizations] interleaves the runs after the join; no
     draw changes. *)
  let streams = Mde_prob.Rng.split_n rng n_reps in
  let n_runs = match pool with None -> 1 | Some p -> min n_reps (Mde_par.Pool.domains p) in
  let realized = Array.make n_runs [||] in
  Mde_par.Pool.iter ?pool ~site:"bundle.generate" n_runs (fun k ->
      let lo = k * n_reps / n_runs and hi = (k + 1) * n_reps / n_runs in
      realized.(k) <-
        snd
          (Stochastic_table.realize ~one_row:true st (Array.sub streams lo (hi - lo))));
  let columns =
    Array.mapi
      (fun j ty -> Column.of_realizations ~ty (Array.map (fun cols -> cols.(j)) realized))
      (column_types out_schema)
  in
  {
    schema = out_schema;
    n_reps;
    n_rows;
    columns;
    presence = Bitset.create ~rows:n_rows ~reps:n_reps true;
  }

let of_table table ~n_reps =
  if n_reps < 1 then invalid_arg "Bundle.of_table: n_reps must be >= 1";
  let schema = Table.schema table in
  let rows = Table.rows table in
  let n_rows = Array.length rows in
  let tys = column_types schema in
  let columns =
    Array.init (Array.length tys) (fun j ->
        Column.of_det_cells ~ty:tys.(j) ~rows:n_rows ~reps:n_reps (fun i ->
            rows.(i).(j)))
  in
  { schema; n_reps; n_rows; columns; presence = Bitset.create ~rows:n_rows ~reps:n_reps true }

(* --- select / project / extend ---------------------------------------- *)

let env t = Kernel.env_of_columns t.schema t.columns

(* A deterministic predicate is tested once per row and clears the whole
   row; an uncertain one is tested on the present cells. *)
let select ?pool pred t =
  instrumented ~cells:(t.n_rows * t.n_reps) (fun () ->
      let presence = Bitset.copy t.presence in
      let node = Kernel.compile_as (env t) Value.Tbool pred in
      let unc = Kernel.unc node in
      let presence_in = if unc then Some t.presence else None in
      Kernel.sweep ?pool ~site:"bundle.select" ?presence:presence_in ~rows:t.n_rows
        ~reps:(if unc then t.n_reps else 1)
        (fun f ->
          let kept, keep = Kernel.filter node f in
          ( (fun () -> keep f.all),
            fun () ->
              (* Drop every selected position the filter did not keep. *)
              let m = ref 0 in
              for j = 0 to f.all.n - 1 do
                let k = f.all.pos.(j) in
                if !m < kept.n && kept.pos.(!m) = k then incr m
                else if unc then begin
                  let i = f.rowix.(k) in
                  Bitset.unset presence i (f.lo + k - (i * t.n_reps))
                end
                else Bitset.clear_row presence f.rowix.(k)
              done ));
      { t with presence })

let project names t =
  let idxs = List.map (Schema.column_index t.schema) names in
  {
    t with
    schema = Schema.project t.schema names;
    columns = Array.of_list (List.map (fun j -> t.columns.(j)) idxs);
  }

let extend ?pool defs t =
  let added = Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) defs) in
  instrumented ~cells:(t.n_rows * t.n_reps * List.length defs) (fun () ->
      let kenv = env t in
      let nodes = List.map (fun (_, ty, e) -> (ty, Kernel.compile_as kenv ty e)) defs in
      let materialize (ty, node) = Kernel.materialize ?pool ~ty ~rows:t.n_rows ~reps:t.n_reps node in
      {
        t with
        schema = Schema.concat t.schema added;
        columns = Array.append t.columns (Array.of_list (List.map materialize nodes));
      })

(* --- join ----------------------------------------------------------- *)

(* Key columns must be deterministic: checked before any work. *)
let det_key_columns t idxs =
  Array.of_list
    (List.map
       (fun j ->
         let c = t.columns.(j) in
         if Column.det c then c else invalid_arg "Bundle: key column is uncertain")
       idxs)

let join ~on left right =
  if left.n_reps <> right.n_reps then
    invalid_arg "Bundle.join: repetition counts differ";
  let ls = left.schema and rs = right.schema in
  let out_schema = Schema.concat ls rs in
  let l_keys = det_key_columns left (List.map (fun (l, _) -> Schema.column_index ls l) on) in
  let r_keys = det_key_columns right (List.map (fun (_, r) -> Schema.column_index rs r) on) in
  let li, ri = Columnar.join_index (l_keys, left.n_rows) (r_keys, right.n_rows) in
  let n_out = Array.length ri in
  (* No left index: pair [k] is left row [k]. *)
  let l_cols, l_row =
    match li with
    | None -> (left.columns, Fun.id)
    | Some li -> (Column.gather left.columns li, Array.get li)
  in
  let columns = Array.append l_cols (Column.gather right.columns ri) in
  let presence = Bitset.create ~rows:n_out ~reps:left.n_reps false in
  for k = 0 to n_out - 1 do
    Bitset.and_rows ~dst:presence k ~a:left.presence (l_row k) ~b:right.presence ri.(k)
  done;
  { schema = out_schema; n_reps = left.n_reps; n_rows = n_out; columns; presence }

(* --- aggregate / fused query ---------------------------------------- *)

(* One sweep over the present cells, through the shared aggregation
   core: test, derive, then accumulate each block in row order, so
   per-rep float sums keep their bits whether or not the blocks were
   evaluated on the pool. Aggregates leave as floats: Null (an empty
   cell) as [nan], counts converted. *)
let sweep_plan ?pool t ~pred ~keys aggs =
  let key_cols = det_key_columns t (List.map (Schema.column_index t.schema) keys) in
  let res =
    Aggregate.grouped ~pool ~site:"bundle.sweep" ~presence:(Some t.presence) ~where:pred
      ~keys:key_cols ~rows:t.n_rows ~reps:t.n_reps aggs
  in
  let sample = function Value.Null -> nan | v -> Value.to_float v in
  List.init res.n_groups (fun g ->
      ( Array.map (fun c -> Column.value c res.firsts.(g) 0) key_cols,
        Array.mapi (fun a _ -> Array.init t.n_reps (fun r -> sample (res.value a g r))) aggs ))

(* Test, derive and aggregate in one sweep, the derivations bound by
   name. Everything is typed before the sweep, in the order select,
   extend and aggregate type it: the predicate, each derivation against
   the input schema, then the aggregates. Over derivations, aggregates
   are typed against the derived schema first, by declared type, since
   the kernel types a derivation that is always Null as Null. *)
let fused ?pool t ~pred ~defs ~keys ~aggs =
  let env = env t in
  let pred = Option.map (Kernel.compile_as env Value.Tbool) pred in
  let def_nodes = List.map (fun (n, ty, e) -> (n, Kernel.compile_as env ty e)) defs in
  if defs <> [] then begin
    let derived = Schema.concat t.schema (Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) defs)) in
    List.iter (fun (_, a) -> Aggregate.check (fun n -> Some (Schema.column_type derived n)) a) aggs
  end;
  let env = Kernel.env_extend env def_nodes in
  sweep_plan ?pool t ~pred ~keys
    (Array.of_list (List.map (fun (_, a) -> Aggregate.compile env a) aggs))

let aggregate ?pool ?(keys = []) aggs t =
  instrumented ~cells:(t.n_rows * t.n_reps) (fun () ->
      fused ?pool t ~pred:None ~defs:[] ~keys ~aggs)

type plan = {
  where_ : Expr.t option;
  derive : (string * Value.ty * Expr.t) list;
  group_keys : string list;
  aggs : (string * Aggregate.t) list;
}

let plan_fingerprint plan =
  Format.asprintf "plan{where=%s;derive=[%s];keys=[%s];aggs=[%s]}"
    (match plan.where_ with
    | None -> "-"
    | Some p -> Format.asprintf "%a" Expr.pp p)
    (String.concat ";"
       (List.map
          (fun (n, ty, e) ->
            Format.asprintf "%s:%s=%a" n (Value.type_name ty) Expr.pp e)
          plan.derive))
    (String.concat ";" plan.group_keys)
    (String.concat ";"
       (List.map (fun (n, a) -> n ^ "=" ^ Aggregate.fingerprint a) plan.aggs))

let query ?pool t plan =
  if List.for_all (Schema.mem t.schema) plan.group_keys then
    instrumented ~cells:(t.n_rows * t.n_reps) (fun () ->
        fused ?pool t ~pred:plan.where_ ~defs:plan.derive ~keys:plan.group_keys ~aggs:plan.aggs)
  else
    (* Group keys naming derived columns: materialize them, then
       aggregate. *)
    let t = match plan.where_ with None -> t | Some p -> select ?pool p t in
    aggregate ?pool ~keys:plan.group_keys plan.aggs (extend ?pool plan.derive t)

let to_instances t =
  Array.init t.n_reps (fun r ->
      let rows = ref [] in
      for i = t.n_rows - 1 downto 0 do
        if Bitset.get t.presence i r then rows := realize_row t i r :: !rows
      done;
      Table.create t.schema !rows)
