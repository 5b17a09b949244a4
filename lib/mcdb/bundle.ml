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

let count_fallbacks n =
  if n > 0 then begin
    let obs = Mde_obs.default () in
    if Mde_obs.enabled obs then
      Mde_obs.Counter.add
        (Mde_obs.counter obs
           ~help:"Bundle expressions evaluated by the interpreter fallback"
           "mde_bundle_fallback_total")
        n
  end

(* Row-chunked side-effecting sweep; [Pool.iter] chunks contiguously,
   and every per-row write (presence bytes, column slots) is disjoint
   across rows, so the parallel sweep is bit-identical to sequential. *)
let iter_rows ?pool n f = Mde_par.Pool.iter ?pool ~site:"bundle.sweep" n f

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
  (* [params] takes no RNG: one evaluation per driver row serves every
     repetition. *)
  let params = Stochastic_table.driver_params st in
  (* One pre-split stream per repetition, consumed driver-row-major by
     the same routine [Stochastic_table.instantiate] runs on stream [r]
     in [instantiate_many] — so realization [r] of this bundle is naive
     instance [r] by construction, and repetitions can run on the pool
     without changing a single draw. *)
  let streams = Mde_prob.Rng.split_n rng n_reps in
  let realized =
    Mde_par.Pool.init ?pool ~site:"bundle.generate" n_reps (fun r ->
        snd (Stochastic_table.realize ~params ~one_row:true st streams.(r)))
  in
  let columns =
    Array.mapi
      (fun j ty -> Column.of_realizations ~ty (Array.map (fun cols -> cols.(j)) realized))
      (column_types out_schema)
  in
  let n_rows = Array.length params in
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

(* --- select -------------------------------------------------------- *)

let interp_det_only t e =
  List.for_all
    (fun name -> Column.det t.columns.(Schema.column_index t.schema name))
    (Expr.columns_used e)

let select ?pool pred t =
  instrumented ~cells:(t.n_rows * t.n_reps) (fun () ->
      let presence = Bitset.copy t.presence in
      let compiled =
        let env = Kernel.env_of_columns t.schema ~reps:t.n_reps t.columns in
        Option.bind (Kernel.compile env pred) (fun node ->
            Option.map (fun test -> (test, Kernel.node_unc node)) (Kernel.as_pred node))
      in
      begin
        match compiled with
        | Some (test, unc) ->
          if not unc then
            (* One evaluation covers every repetition. *)
            iter_rows ?pool t.n_rows (fun i ->
                if not (test i 0) then Bitset.clear_row presence i)
          else
            iter_rows ?pool t.n_rows (fun i ->
                for r = 0 to t.n_reps - 1 do
                  if Bitset.get presence i r && not (test i r) then
                    Bitset.unset presence i r
                done)
        | None ->
          count_fallbacks 1;
          if interp_det_only t pred then
            iter_rows ?pool t.n_rows (fun i ->
                if not (Expr.eval_bool t.schema (realize_row t i 0) pred) then
                  Bitset.clear_row presence i)
          else
            iter_rows ?pool t.n_rows (fun i ->
                for r = 0 to t.n_reps - 1 do
                  if
                    Bitset.get presence i r
                    && not (Expr.eval_bool t.schema (realize_row t i r) pred)
                  then Bitset.unset presence i r
                done)
      end;
      { t with presence })

(* --- project / extend ---------------------------------------------- *)

let project names t =
  let idxs = List.map (Schema.column_index t.schema) names in
  {
    t with
    schema = Schema.project t.schema names;
    columns = Array.of_list (List.map (fun j -> t.columns.(j)) idxs);
  }

let extend ?pool defs t =
  let added = Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) defs) in
  let out_schema = Schema.concat t.schema added in
  instrumented ~cells:(t.n_rows * t.n_reps * List.length defs) (fun () ->
      let env = Kernel.env_of_columns t.schema ~reps:t.n_reps t.columns in
      let new_cols =
        List.map
          (fun (_, ty, e) ->
            match Kernel.compile env e with
            | Some node -> Kernel.materialize ?pool ~rows:t.n_rows ~reps:t.n_reps node
            | None ->
              count_fallbacks 1;
              if interp_det_only t e then
                Column.of_det_cells ~ty ~rows:t.n_rows ~reps:t.n_reps (fun i ->
                    Expr.eval t.schema (realize_row t i 0) e)
              else
                Column.of_cells ~ty ~rows:t.n_rows ~reps:t.n_reps (fun i r ->
                    Expr.eval t.schema (realize_row t i r) e))
          defs
      in
      {
        t with
        schema = out_schema;
        columns = Array.append t.columns (Array.of_list new_cols);
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
  let n_out = Array.length li in
  let columns =
    Array.append (Column.gather left.columns li) (Column.gather right.columns ri)
  in
  let presence = Bitset.create ~rows:n_out ~reps:left.n_reps false in
  for k = 0 to n_out - 1 do
    Bitset.and_rows ~dst:presence k ~a:left.presence li.(k) ~b:right.presence ri.(k)
  done;
  { schema = out_schema; n_reps = left.n_reps; n_rows = n_out; columns; presence }

(* --- aggregate / fused query ---------------------------------------- *)

type agg = Count | Sum of Expr.t | Avg of Expr.t | Min of Expr.t | Max of Expr.t

type group_state = {
  counts : int array;  (* per rep *)
  sums : float array array;  (* per agg, per rep *)
  mins : float array array;
  maxs : float array array;
  agg_counts : int array array;  (* per agg: rows contributing per rep *)
}

type def_eval = D_node of Kernel.node | D_interp of Expr.t
type pred_eval = P_none | P_cell of (int -> int -> bool) | P_interp of Expr.t
type agg_eval = A_count | A_cell of Kernel.cell | A_interp of Expr.t

let fused ?pool t ~pred ~defs ~keys ~aggs =
  let key_cols = det_key_columns t (List.map (Schema.column_index t.schema) keys) in
  let ext_schema =
    match defs with
    | [] -> t.schema
    | _ ->
      Schema.concat t.schema
        (Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) defs))
  in
  let fallbacks = ref 0 in
  let env = Kernel.env_of_columns t.schema ~reps:t.n_reps t.columns in
  let def_evals =
    List.map
      (fun (name, _, e) ->
        match Kernel.compile env e with
        | Some node -> (name, D_node node)
        | None ->
          incr fallbacks;
          (name, D_interp e))
      defs
  in
  let env' =
    Kernel.env_extend env
      (List.filter_map
         (function n, D_node node -> Some (n, node) | _, D_interp _ -> None)
         def_evals)
  in
  let pred_eval =
    match pred with
    | None -> P_none
    | Some p -> (
      match Option.bind (Kernel.compile env p) Kernel.as_pred with
      | Some test -> P_cell test
      | None ->
        incr fallbacks;
        P_interp p)
  in
  let agg_evals =
    Array.of_list
      (List.map
         (fun (_, agg) ->
           match agg with
           | Count -> A_count
           | Sum e | Avg e | Min e | Max e -> (
             match Option.bind (Kernel.compile env' e) Kernel.as_float_cell with
             | Some cell -> A_cell cell
             | None ->
               incr fallbacks;
               A_interp e))
         aggs)
  in
  count_fallbacks !fallbacks;
  (* Extended-schema row for interpreted aggregate arguments. *)
  let ext_row i r =
    let base = realize_row t i r in
    match def_evals with
    | [] -> base
    | _ ->
      Array.append base
        (Array.of_list
           (List.map
              (function
                | _, D_node node -> Kernel.node_value node i r
                | _, D_interp e -> Expr.eval t.schema base e)
              def_evals))
  in
  let pass =
    match pred_eval with
    | P_none -> fun _ _ -> true
    | P_cell test -> test
    | P_interp p -> fun i r -> Expr.eval_bool t.schema (realize_row t i r) p
  in
  let n_aggs = Array.length agg_evals in
  let fresh () =
    {
      counts = Array.make t.n_reps 0;
      sums = Array.init n_aggs (fun _ -> Array.make t.n_reps 0.);
      mins = Array.init n_aggs (fun _ -> Array.make t.n_reps infinity);
      maxs = Array.init n_aggs (fun _ -> Array.make t.n_reps neg_infinity);
      agg_counts = Array.init n_aggs (fun _ -> Array.make t.n_reps 0);
    }
  in
  (* Keying: one packed Keycode word per row, first-seen group ids, and
     each group's key values read back from its first row. *)
  let ids, firsts = Keycode.groups ?pool key_cols ~rows:t.n_rows in
  let states = Array.map (fun _ -> fresh ()) firsts in
  let state_for i = states.(ids.(i)) in
  let accumulate state a r x =
    state.sums.(a).(r) <- state.sums.(a).(r) +. x;
    if x < state.mins.(a).(r) then state.mins.(a).(r) <- x;
    if x > state.maxs.(a).(r) then state.maxs.(a).(r) <- x;
    state.agg_counts.(a).(r) <- state.agg_counts.(a).(r) + 1
  in
  begin
    match pool with
    | None ->
      (* Single fused sweep: test, derive and accumulate per cell. *)
      for i = 0 to t.n_rows - 1 do
        let state = state_for i in
        for r = 0 to t.n_reps - 1 do
          if Bitset.get t.presence i r && pass i r then begin
            state.counts.(r) <- state.counts.(r) + 1;
            Array.iteri
              (fun a ev ->
                match ev with
                | A_count -> ()
                | A_cell cell ->
                  if not (cell.Kernel.null i r) then
                    accumulate state a r (cell.Kernel.value i r)
                | A_interp e ->
                  let v = Expr.eval ext_schema (ext_row i r) e in
                  if not (Value.is_null v) then accumulate state a r (Value.to_float v))
              agg_evals
          end
        done
      done
    | Some _ ->
      (* Two-phase parallel: evaluate cells row-chunked into scratch,
         then replay the accumulation sequentially in row order — float
         addition is order-sensitive, so the replay keeps grouped sums
         bit-identical to the sequential sweep. *)
      let pass_bits = Bitset.create ~rows:t.n_rows ~reps:t.n_reps false in
      let scratch =
        Array.map
          (function
            | A_count -> None
            | A_cell _ | A_interp _ ->
              Some
                ( Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
                    (max 1 (t.n_rows * t.n_reps)),
                  Bitset.create ~rows:t.n_rows ~reps:t.n_reps false ))
          agg_evals
      in
      iter_rows ?pool t.n_rows (fun i ->
          for r = 0 to t.n_reps - 1 do
            if Bitset.get t.presence i r && pass i r then begin
              Bitset.set pass_bits i r;
              Array.iteri
                (fun a ev ->
                  match (ev, scratch.(a)) with
                  | A_count, _ | _, None -> ()
                  | A_cell cell, Some (vals, skips) ->
                    if cell.Kernel.null i r then Bitset.set skips i r
                    else
                      Bigarray.Array1.set vals ((i * t.n_reps) + r)
                        (cell.Kernel.value i r)
                  | A_interp e, Some (vals, skips) ->
                    let v = Expr.eval ext_schema (ext_row i r) e in
                    if Value.is_null v then Bitset.set skips i r
                    else
                      Bigarray.Array1.set vals ((i * t.n_reps) + r) (Value.to_float v))
                agg_evals
            end
          done);
      for i = 0 to t.n_rows - 1 do
        let state = state_for i in
        for r = 0 to t.n_reps - 1 do
          if Bitset.get pass_bits i r then begin
            state.counts.(r) <- state.counts.(r) + 1;
            Array.iteri
              (fun a ev ->
                match (ev, scratch.(a)) with
                | A_count, _ | _, None -> ()
                | (A_cell _ | A_interp _), Some (vals, skips) ->
                  if not (Bitset.get skips i r) then
                    accumulate state a r
                      (Bigarray.Array1.get vals ((i * t.n_reps) + r)))
              agg_evals
          end
        done
      done
  end;
  let finish (key, state) =
    let per_agg =
      Array.of_list
        (List.mapi
           (fun a (_, agg) ->
             Array.init t.n_reps (fun r ->
                 match agg with
                 | Count -> float_of_int state.counts.(r)
                 | Sum _ -> state.sums.(a).(r)
                 | Avg _ ->
                   if state.agg_counts.(a).(r) = 0 then nan
                   else state.sums.(a).(r) /. float_of_int state.agg_counts.(a).(r)
                 | Min _ ->
                   if state.agg_counts.(a).(r) = 0 then nan else state.mins.(a).(r)
                 | Max _ ->
                   if state.agg_counts.(a).(r) = 0 then nan else state.maxs.(a).(r)))
           aggs)
    in
    (key, per_agg)
  in
  let finish_empty_global () =
    (* No tuples at all and a global group: zero counts/sums, nan moments. *)
    let per_agg =
      Array.of_list
        (List.map
           (fun (_, agg) ->
             Array.init t.n_reps (fun _ ->
                 match agg with Count | Sum _ -> 0. | Avg _ | Min _ | Max _ -> nan))
           aggs)
    in
    ([||], per_agg)
  in
  match (firsts, keys) with
  | [||], [] -> [ finish_empty_global () ]
  | _ ->
    List.init (Array.length firsts) (fun g ->
        finish (Array.map (fun c -> Column.value c firsts.(g) 0) key_cols, states.(g)))

let aggregate ?pool ?(keys = []) aggs t =
  instrumented ~cells:(t.n_rows * t.n_reps) (fun () ->
      fused ?pool t ~pred:None ~defs:[] ~keys ~aggs)

type plan = {
  where_ : Expr.t option;
  derive : (string * Value.ty * Expr.t) list;
  group_keys : string list;
  aggs : (string * agg) list;
}

let agg_fingerprint = function
  | Count -> "count"
  | Sum e -> Format.asprintf "sum(%a)" Expr.pp e
  | Avg e -> Format.asprintf "avg(%a)" Expr.pp e
  | Min e -> Format.asprintf "min(%a)" Expr.pp e
  | Max e -> Format.asprintf "max(%a)" Expr.pp e

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
       (List.map (fun (n, a) -> n ^ "=" ^ agg_fingerprint a) plan.aggs))

let query ?pool t plan =
  if List.for_all (Schema.mem t.schema) plan.group_keys then
    instrumented ~cells:(t.n_rows * t.n_reps) (fun () ->
        fused ?pool t ~pred:plan.where_ ~defs:plan.derive
          ~keys:plan.group_keys ~aggs:plan.aggs)
  else
    (* Group keys name derived columns: materialize, then aggregate. *)
    let t = match plan.where_ with None -> t | Some p -> select ?pool p t in
    let t = extend ?pool plan.derive t in
    aggregate ?pool ~keys:plan.group_keys plan.aggs t

let to_instances t =
  Array.init t.n_reps (fun r ->
      let rows = ref [] in
      for i = t.n_rows - 1 downto 0 do
        if Bitset.get t.presence i r then rows := realize_row t i r :: !rows
      done;
      Table.create t.schema !rows)
