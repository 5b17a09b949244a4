(* The four xoshiro256** words s0..s3 live at byte offsets 0, 8, 16 and 24
   of one private 32-byte buffer, in native byte order. The unboxed bytes
   primitives read and write them without an [Int64] box, so [bits64] keeps
   the whole state in registers and a draw allocates only its returned
   value. The offsets are constants inside a buffer that is always 32
   bytes, hence the unchecked variants. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The k-th output (k >= 1) of splitmix64 started at [seed]: its state
   after k steps is [seed + k * gamma], so no state needs threading. *)
let[@inline] splitmix64 seed k =
  let open Int64 in
  let z = add seed (mul (of_int k) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* splitmix64 seeds xoshiro and derives split streams. *)
let[@inline] of_seed64 seed =
  let t = Bytes.create 32 in
  set64 t 0 (splitmix64 seed 1);
  set64 t 8 (splitmix64 seed 2);
  set64 t 16 (splitmix64 seed 3);
  set64 t 24 (splitmix64 seed 4);
  t

let default_seed = 0x5DEECE66DL

let create ?(seed = 0x139408DCBBF7A44) () =
  of_seed64 (Int64.logxor (Int64.of_int seed) default_seed)

let copy = Bytes.copy

(* The xoshiro256** state update from the loaded state: every draw and
   every skipped draw goes through here. *)
let[@inline] step t s0 s1 s2 s3 =
  let open Int64 in
  let u = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 0 (logxor s0 s3);
  set64 t 8 (logxor s1 s2);
  set64 t 16 (logxor s2 u);
  set64 t 24 (rotl s3 45)

(* One xoshiro256** draw: load the state, compute the output, advance
   the state. *)
let[@inline] bits64 t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.(mul (rotl (mul s1 5L) 7) 9L) in
  step t s0 s1 s2 s3;
  result

let split t = of_seed64 (bits64 t)

(* [bits64]'s state update without its output: nothing is boxed. *)
let advance t n =
  if n < 0 then invalid_arg "Rng.advance: n must be non-negative";
  for _ = 1 to n do
    step t (get64 t 0) (get64 t 8) (get64 t 16) (get64 t 24)
  done

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: n must be non-negative";
  Array.init n (fun _ -> split t)

let[@inline] float t =
  (* 53 high bits, scaled to [0,1). *)
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1.0p-53

let rec float_pos t =
  let u = float t in
  if u > 0. then u else float_pos t

let[@inline] float_range t lo hi =
  if not (lo < hi) then invalid_arg "Rng.float_range: requires lo < hi";
  lo +. ((hi -. lo) *. float t)

(* Rejection sampling over the 63 high bits to avoid modulo bias: reject
   draws in the final, incomplete block of size [n], i.e. keep a draw only
   if its block start [bits - v] leaves room for a full block,
   bits - v + (n - 1) <= max_int. *)
let rec int_rejection t n =
  let bound = Int64.of_int n in
  let bits = Int64.shift_right_logical (bits64 t) 1 in
  let v = Int64.rem bits bound in
  if Int64.sub bits v > Int64.add (Int64.sub Int64.max_int bound) 1L then int_rejection t n
  else Int64.to_int v

let int t n =
  if n <= 0 then invalid_arg "Rng.int: n must be positive";
  if n land (n - 1) = 0 then Int64.to_int (Int64.logand (bits64 t) (Int64.of_int (n - 1)))
  else int_rejection t n

let bool t = Int64.logand (bits64 t) 1L <> 0L

let bernoulli t p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Rng.bernoulli: p must be in [0, 1]";
  float t < p

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a
