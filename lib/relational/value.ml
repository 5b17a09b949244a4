type t = Null | Int of int | Float of float | String of string | Bool of bool
type ty = Tint | Tfloat | Tstring | Tbool

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | String _ -> Some Tstring
  | Bool _ -> Some Tbool

let type_name = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstring -> "string"
  | Tbool -> "bool"

let rank = function Null -> 0 | Bool _ -> 1 | Int _ | Float _ -> 2 | String _ -> 3

(* Exact: [float_of_int] rounds beyond 2^53, so comparing through it
   made Int (2^53+1), Float 2^53. and Int 2^53 pairwise "equal" but
   not all equal. Ints span [-2^62, 2^62); inside that range [f]'s
   integral part [t] is exact, and so is [float_of_int t]. NaN sorts
   below every number, as under [Float.compare]. *)
let compare_int_float i f =
  if Float.is_nan f then 1
  else if f >= 0x1p62 then -1
  else if f < -0x1p62 then 1
  else
    let t = int_of_float f in
    if i <> t then Int.compare i t else Float.compare (float_of_int t) f

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | String x, String y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _ | String _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let identical a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> same_float x y
  | String x, String y -> String.equal x y
  | (Null | Bool _ | Int _ | Float _ | String _), _ -> false

let hash = function
  | Null -> 0x6e756c6c
  | Bool false -> 0x0b001
  | Bool true -> 0x0b101
  (* Int and Float hash through the same float image because [compare]
     (hence [equal]) orders them numerically across types: Int 1 and
     Float 1. are equal keys and must collide. An Int equals a Float
     only when the float is its exact image, so rounding here merely
     adds collisions. *)
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f ->
    (* Every NaN payload is [equal] under [Float.compare], so all NaNs
       must share one hash. *)
    if Float.is_nan f then 0x7ff8 else Hashtbl.hash f
  | String s -> Hashtbl.hash s

let is_null = function Null -> true | Bool _ | Int _ | Float _ | String _ -> false

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | Bool b -> if b then 1. else 0.
  | Null -> invalid_arg "Value.to_float: Null"
  | String _ -> invalid_arg "Value.to_float: String"

let to_int = function
  | Int i -> i
  | Bool b -> if b then 1 else 0
  | Null | Float _ | String _ -> invalid_arg "Value.to_int"

let to_string_value = function
  | String s -> s
  | Null | Int _ | Float _ | Bool _ -> invalid_arg "Value.to_string_value"

let to_display = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | String s -> s
  | Bool b -> if b then "true" else "false"

let pp ppf v = Format.pp_print_string ppf (to_display v)

module Key = struct
  type nonrec t = t list

  let equal = List.equal equal
  let hash k = List.fold_left (fun acc v -> (acc * 31) + hash v) 17 k
end

module Tbl = Hashtbl.Make (Key)
