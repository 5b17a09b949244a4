type t =
  | Scan of string
  | Select of Expr.t * t
  | Project of string list * t
  | Join of (string * string) list * t * t

let scan name = Scan name
let select pred plan = Select (pred, plan)
let project cols plan = Project (cols, plan)
let join ~on left right = Join (on, left, right)

let rec schema_of catalog = function
  | Scan name -> Table.schema (Catalog.find catalog name)
  | Select (_, child) -> schema_of catalog child
  | Project (cols, child) -> Schema.project (schema_of catalog child) cols
  | Join (_, l, r) -> Schema.concat (schema_of catalog l) (schema_of catalog r)

let rec execute_rows catalog = function
  | Scan name -> Catalog.find catalog name
  | Select (pred, child) -> Algebra.select pred (execute_rows catalog child)
  | Project (cols, child) -> Algebra.project cols (execute_rows catalog child)
  | Join (on, l, r) ->
    Algebra.equi_join ~on (execute_rows catalog l) (execute_rows catalog r)

let execute ?pool catalog plan =
  let rec go = function
    | Scan name -> Columnar.of_table (Catalog.find catalog name)
    | Select (pred, child) -> Columnar.select ?pool pred (go child)
    | Project (cols, child) -> Columnar.project cols (go child)
    | Join (on, l, r) -> Columnar.equi_join ?pool ~on (go l) (go r)
  in
  Columnar.to_table (go plan)

(* --- estimation --- *)

(* Environment: per-column estimated distinct count, threaded bottom-up. *)
module Env = Map.Make (String)

let scan_env catalog name =
  let table = Catalog.find catalog name in
  List.fold_left
    (fun env col ->
      let stats = Catalog.column_stats catalog name col in
      Env.add col (Float.max 1. (float_of_int stats.Catalog.distinct)) env)
    Env.empty
    (Schema.column_names (Table.schema table))

let distinct_of env col = Option.value ~default:10. (Env.find_opt col env)

let rec selectivity env expr =
  let open Expr in
  match expr with
  | Eq (Col c, Lit _) | Eq (Lit _, Col c) -> 1. /. distinct_of env c
  | Eq (Col a, Col b) -> 1. /. Float.max (distinct_of env a) (distinct_of env b)
  | Eq _ | Ne _ -> 0.5
  | Lt _ | Le _ | Gt _ | Ge _ -> 1. /. 3.
  | And (a, b) -> selectivity env a *. selectivity env b
  | Or (a, b) -> Float.min 1. (selectivity env a +. selectivity env b)
  | Not a -> Float.max 0. (1. -. selectivity env a)
  | Is_null _ -> 0.1
  | Lit (Value.Bool true) -> 1.
  | Lit (Value.Bool false) -> 0.
  | Col _ | Lit _ | Add _ | Sub _ | Mul _ | Div _ | Neg _ | If _ -> 0.5

let rec estimate catalog = function
  | Scan name ->
    (float_of_int (Catalog.row_count catalog name), scan_env catalog name)
  | Select (pred, child) ->
    let rows, env = estimate catalog child in
    let rows = rows *. selectivity env pred in
    (* Distinct counts cannot exceed the (estimated) row count. *)
    (rows, Env.map (fun d -> Float.min d (Float.max 1. rows)) env)
  | Project (cols, child) ->
    let rows, env = estimate catalog child in
    (rows, Env.filter (fun c _ -> List.mem c cols) env)
  | Join (on, l, r) ->
    let l_rows, l_env = estimate catalog l in
    let r_rows, r_env = estimate catalog r in
    (* A composite key's distinct count on one side is the product of
       its columns' counts, at most that side's rows; the join divides by
       the larger side's count, as a single-column key divides by the
       larger of its two columns'. [on = []] divides by 1. *)
    let keys cols env rows =
      Float.min (Float.max 1. rows)
        (List.fold_left (fun acc c -> acc *. distinct_of env c) 1. cols)
    in
    let key_factor =
      Float.max (keys (List.map fst on) l_env l_rows) (keys (List.map snd on) r_env r_rows)
    in
    (l_rows *. r_rows /. key_factor, Env.union (fun _ a _ -> Some a) l_env r_env)

let estimate_rows catalog plan = fst (estimate catalog plan)

type cost = { estimated_rows : float; intermediate_rows : float }

let estimate_cost catalog plan =
  let rec go plan =
    let rows = estimate_rows catalog plan in
    let below =
      match plan with
      | Scan _ -> 0.
      | Select (_, c) | Project (_, c) -> go c
      | Join (_, l, r) -> go l +. go r
    in
    rows +. below
  in
  { estimated_rows = estimate_rows catalog plan; intermediate_rows = go plan }

(* --- selection pushdown --- *)

let rec conjuncts = function
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let covered schema pred =
  List.for_all (Schema.mem schema) (Expr.columns_used pred)

let wrap_selects plan preds =
  List.fold_left (fun p pred -> Select (pred, p)) plan preds

let push_selections catalog plan =
  (* [go plan preds] sinks [preds] (all applicable to plan's schema) as
     deep as possible and returns the rewritten plan. *)
  let rec go plan preds =
    match plan with
    | Scan _ -> wrap_selects plan preds
    | Select (e, child) -> go child (conjuncts e @ preds)
    | Project (cols, child) ->
      (* Preds only mention projected columns, all of which the child
         also has — push through. *)
      Project (cols, go child preds)
    | Join (on, l, r) ->
      let ls = schema_of catalog l and rs = schema_of catalog r in
      let left_preds, rest = List.partition (covered ls) preds in
      let right_preds, stay = List.partition (covered rs) rest in
      wrap_selects (Join (on, go l left_preds, go r right_preds)) stay
  in
  go plan []

(* --- join ordering --- *)

(* A maximal chain of inner equi-joins: its leaf sub-plans and key pairs. *)
let rec flatten = function
  | Join (on, l, r) ->
    let l_leaves, l_pairs = flatten l in
    let r_leaves, r_pairs = flatten r in
    (l_leaves @ r_leaves, on @ l_pairs @ r_pairs)
  | leaf -> ([ leaf ], [])

let order_join_chain catalog leaves pairs =
  match leaves with
  | [] | [ _ ] -> None
  | _ :: _ :: _ ->
    let n = List.length leaves in
    let leaves = Array.of_list leaves in
    let schemas = Array.map (schema_of catalog) leaves in
    let rows = Array.map (estimate_rows catalog) leaves in
    let used = Array.make n false in
    (* Start from the smallest-cardinality leaf. *)
    let start = ref 0 in
    Array.iteri (fun i r -> if r < rows.(!start) then start := i) rows;
    used.(!start) <- true;
    let acc_plan = ref leaves.(!start) in
    let acc_schema = ref schemas.(!start) in
    let acc_rows = ref rows.(!start) in
    let remaining_pairs = ref pairs in
    let ok = ref true in
    (try
       for _ = 2 to n do
         (* Candidates: unused leaves connected to the accumulated plan by
            at least one key pair. *)
         let candidates = ref [] in
         for i = 0 to n - 1 do
           if not used.(i) then begin
             let applicable =
               List.filter
                 (fun (a, b) ->
                   (Schema.mem !acc_schema a && Schema.mem schemas.(i) b)
                   || (Schema.mem !acc_schema b && Schema.mem schemas.(i) a))
                 !remaining_pairs
             in
             if applicable <> [] then candidates := (i, applicable) :: !candidates
           end
         done;
         match !candidates with
         | [] ->
           (* Disconnected chain (would need a cross product): bail out. *)
           ok := false;
           raise Exit
         | cands ->
           let score (i, applicable) =
             let oriented =
               List.map
                 (fun (a, b) ->
                   if Schema.mem !acc_schema a then (a, b) else (b, a))
                 applicable
             in
             let candidate = Join (oriented, !acc_plan, leaves.(i)) in
             (estimate_rows catalog candidate, i, oriented)
           in
           let scored = List.map score cands in
           let best =
             List.fold_left
               (fun (br, bi, bo) (r, i, o) ->
                 if r < br then (r, i, o) else (br, bi, bo))
               (List.hd scored) (List.tl scored)
           in
           let joined_rows, i, oriented = best in
           (* The input with the strictly larger estimate goes left, to
              probe: the executor hashes the right side and emits pairs
              in left-row order, so a large fact table streams in its
              own row order. The estimate is symmetric, so flipping
              changes no cost figure. *)
           if rows.(i) > !acc_rows then begin
             acc_plan := Join (List.map (fun (a, b) -> (b, a)) oriented, leaves.(i), !acc_plan);
             acc_schema := Schema.concat schemas.(i) !acc_schema
           end
           else begin
             acc_plan := Join (oriented, !acc_plan, leaves.(i));
             acc_schema := Schema.concat !acc_schema schemas.(i)
           end;
           acc_rows := joined_rows;
           used.(i) <- true;
           remaining_pairs :=
             List.filter
               (fun (a, b) ->
                 not
                   (List.exists
                      (fun (x, y) -> (x = a && y = b) || (x = b && y = a))
                      oriented))
               !remaining_pairs
       done
     with Exit -> ());
    if !ok then Some !acc_plan else None

let rec order_joins catalog plan =
  match plan with
  | Scan _ -> plan
  | Select (e, child) -> Select (e, order_joins catalog child)
  | Project (cols, child) -> Project (cols, order_joins catalog child)
  | Join (on, l, r) -> (
    let leaves, pairs = flatten plan in
    let leaves = List.map (order_joins catalog) leaves in
    match order_join_chain catalog leaves pairs with
    | Some reordered -> reordered
    | None ->
      (* Disconnected chain (needs a cross product): the flattened chain
         cannot be reordered as a whole, but connected sub-chains under
         this join still can — keep this node and recurse, instead of
         returning the untouched original plan. *)
      Join (on, order_joins catalog l, order_joins catalog r))

let optimize catalog plan = order_joins catalog (push_selections catalog plan)

let rec pp ppf = function
  | Scan name -> Format.fprintf ppf "scan %s" name
  | Select (e, child) -> Format.fprintf ppf "@[<v2>select %a@,%a@]" Expr.pp e pp child
  | Project (cols, child) ->
    Format.fprintf ppf "@[<v2>project [%s]@,%a@]" (String.concat "; " cols) pp child
  | Join (on, l, r) ->
    Format.fprintf ppf "@[<v2>join [%s]@,%a@,%a@]"
      (String.concat "; " (List.map (fun (a, b) -> a ^ "=" ^ b) on))
      pp l pp r
