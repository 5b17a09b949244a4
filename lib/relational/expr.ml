type t =
  | Col of string
  | Lit of Value.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Neg of t
  | Eq of t * t
  | Ne of t * t
  | Lt of t * t
  | Le of t * t
  | Gt of t * t
  | Ge of t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | If of t * t * t

let col name = Col name
let int i = Lit (Value.Int i)
let float f = Lit (Value.Float f)
let string s = Lit (Value.String s)
let bool b = Lit (Value.Bool b)

let arith name fi ff a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> Value.Int (fi x y)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    Value.Float (ff (Value.to_float a) (Value.to_float b))
  | (Value.String _ | Value.Bool _), _ | _, (Value.String _ | Value.Bool _) ->
    invalid_arg (Printf.sprintf "Expr: %s on non-numeric values" name)

let compare_values op a b =
  if Value.is_null a || Value.is_null b then Value.Bool false
  else Value.Bool (op (Value.compare a b) 0)

let rec eval schema row expr =
  match expr with
  | Col name -> row.(Schema.column_index schema name)
  | Lit v -> v
  | Add (a, b) -> arith "+" Stdlib.( + ) Stdlib.( +. ) (eval schema row a) (eval schema row b)
  | Sub (a, b) -> arith "-" Stdlib.( - ) Stdlib.( -. ) (eval schema row a) (eval schema row b)
  | Mul (a, b) -> arith "*" Stdlib.( * ) Stdlib.( *. ) (eval schema row a) (eval schema row b)
  | Div (a, b) ->
    let x = eval schema row a and y = eval schema row b in
    if Value.is_null x || Value.is_null y then Value.Null
    else Value.Float (Value.to_float x /. Value.to_float y)
  | Neg a -> begin
    match eval schema row a with
    | Value.Null -> Value.Null
    | Value.Int i -> Value.Int (Stdlib.( - ) 0 i)
    | Value.Float f -> Value.Float (-.f)
    | Value.String _ | Value.Bool _ -> invalid_arg "Expr: negation of non-numeric"
  end
  | Eq (a, b) -> compare_values Stdlib.( = ) (eval schema row a) (eval schema row b)
  | Ne (a, b) -> compare_values Stdlib.( <> ) (eval schema row a) (eval schema row b)
  | Lt (a, b) -> compare_values Stdlib.( < ) (eval schema row a) (eval schema row b)
  | Le (a, b) -> compare_values Stdlib.( <= ) (eval schema row a) (eval schema row b)
  | Gt (a, b) -> compare_values Stdlib.( > ) (eval schema row a) (eval schema row b)
  | Ge (a, b) -> compare_values Stdlib.( >= ) (eval schema row a) (eval schema row b)
  | And (a, b) -> Value.Bool (eval_bool schema row a && eval_bool schema row b)
  | Or (a, b) -> Value.Bool (eval_bool schema row a || eval_bool schema row b)
  | Not a -> Value.Bool (not (eval_bool schema row a))
  | Is_null a -> Value.Bool (Value.is_null (eval schema row a))
  | If (c, t, e) -> if eval_bool schema row c then eval schema row t else eval schema row e

and eval_bool schema row expr = truth (eval schema row expr)

and truth = function
  | Value.Bool b -> b
  | Value.Null -> false
  | Value.Int _ | Value.Float _ | Value.String _ ->
    invalid_arg "Expr.eval_bool: non-boolean expression"

let columns_used expr =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  let rec go = function
    | Col name ->
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.add seen name ();
        order := name :: !order
      end
    | Lit _ -> ()
    | Neg a | Not a | Is_null a -> go a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b)
    | Eq (a, b) | Ne (a, b) | Lt (a, b) | Le (a, b) | Gt (a, b) | Ge (a, b)
    | And (a, b) | Or (a, b) ->
      go a;
      go b
    | If (a, b, c) ->
      go a;
      go b;
      go c
  in
  go expr;
  List.rev !order

let rec pp ppf = function
  | Col name -> Format.pp_print_string ppf name
  | Lit v -> Value.pp ppf v
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp a pp b
  | Neg a -> Format.fprintf ppf "(-%a)" pp a
  | Eq (a, b) -> Format.fprintf ppf "(%a = %a)" pp a pp b
  | Ne (a, b) -> Format.fprintf ppf "(%a <> %a)" pp a pp b
  | Lt (a, b) -> Format.fprintf ppf "(%a < %a)" pp a pp b
  | Le (a, b) -> Format.fprintf ppf "(%a <= %a)" pp a pp b
  | Gt (a, b) -> Format.fprintf ppf "(%a > %a)" pp a pp b
  | Ge (a, b) -> Format.fprintf ppf "(%a >= %a)" pp a pp b
  | And (a, b) -> Format.fprintf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a OR %a)" pp a pp b
  | Not a -> Format.fprintf ppf "(NOT %a)" pp a
  | Is_null a -> Format.fprintf ppf "(%a IS NULL)" pp a
  | If (c, t, e) -> Format.fprintf ppf "(IF %a THEN %a ELSE %a)" pp c pp t pp e

(* The typing rule. A kind is [Some ty], or [None] when every cell is
   Null: [None] fits every context, as its Null cells do at run time. *)
let expect kinds e = function
  | Some k when not (List.mem k kinds) ->
    invalid_arg
      (Format.asprintf "Expr: %a is %s, expected %s" pp e (Value.type_name k)
         (String.concat " or " (List.map Value.type_name kinds)))
  | Some _ | None -> ()

let type_of types e =
  let rec kind e =
    match e with
    | Col name -> types name
    | Lit v -> Value.type_of v
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> (
      let x = number a in
      match (e, x, number b) with
      | _, None, _ | _, _, None -> None
      | (Add _ | Sub _ | Mul _), Some Value.Tint, Some Value.Tint -> x
      | _ -> Some Value.Tfloat)
    | Neg a -> number a
    | Eq (a, b) | Ne (a, b) | Lt (a, b) | Le (a, b) | Gt (a, b) | Ge (a, b) ->
      ignore (kind a);
      ignore (kind b);
      Some Value.Tbool
    | And (a, b) | Or (a, b) ->
      condition a;
      condition b;
      Some Value.Tbool
    | Not a -> condition a; Some Value.Tbool
    | Is_null a -> ignore (kind a); Some Value.Tbool
    | If (c, t, f) -> (
      condition c;
      let x = kind t in
      match (x, kind f) with
      | None, k | k, None -> k
      | Some u, Some v when u = v -> x
      | Some u, Some v ->
        invalid_arg
          (Format.asprintf "Expr: %a has branches of kinds %s and %s" pp e (Value.type_name u)
             (Value.type_name v)))
  and number a =
    let k = kind a in
    expect [ Value.Tint; Value.Tfloat ] a k;
    k
  and condition a = expect [ Value.Tbool ] a (kind a) in
  kind e

(* Smart-constructor operators come last so that the stdlib operators they
   shadow remain available to the implementation above. *)
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
let ( / ) a b = Div (a, b)
let ( = ) a b = Eq (a, b)
let ( <> ) a b = Ne (a, b)
let ( < ) a b = Lt (a, b)
let ( <= ) a b = Le (a, b)
let ( > ) a b = Gt (a, b)
let ( >= ) a b = Ge (a, b)
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
let not_ a = Not a
