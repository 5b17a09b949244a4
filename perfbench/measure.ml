(* Shared measurement plumbing: the nanosecond clock, per-op latency
   buffers, the op loop and the per-workload instance interface. *)

let now_ns = Trace.now_ns

(* Seconds on the same monotonic clock, passed as [?clock] to every front
   the benchmark builds so server-side bookkeeping is not quantised to
   the microseconds of [gettimeofday]. *)
let clock () = float_of_int (now_ns ()) *. 1e-9

(* Op latencies in ns, in a bigarray so recording neither allocates on
   the OCaml heap nor shows in [peak_heap_mb]. *)
module Lat = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout 4096; n = 0 }

  let add t x =
    if t.n = Array1.dim t.a then begin
      let b = Array1.create float64 c_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub b 0 t.n);
      t.a <- b
    end;
    Array1.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  (* Nearest-rank quantile of entries [lo, hi). *)
  let quantile ?(lo = 0) ?hi t p =
    let hi = Option.value hi ~default:t.n in
    let s = Array.init (hi - lo) (fun i -> Array1.get t.a (lo + i)) in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (p *. float_of_int (hi - lo))) - 1 in
    s.(max 0 (min (hi - lo - 1) k))
end

let median xs =
  let s = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* What one loop iteration reports back. *)
type tally = { lat : Lat.t; mutable attempted : int; mutable failed : int }

let tally () = { lat = Lat.create (); attempted = 0; failed = 0 }

(* A set-up workload, ready to run. [step] runs one iteration of its
   closed loop (a round of requests, a query, a session) and returns the
   ops it completed, recording each op's latency and any failure seen in
   the response itself. [verify] checks the answers of every op run so
   far against the direct library calls and returns the mismatches; a
   traced instance checks inline instead and [verify] reports its count.
   [layers] reads the per-layer metrics after a traced replay. *)
type instance = {
  step : tally -> int;
  verify : unit -> int;
  layers : unit -> (string * float) list;
}

type workload = {
  name : string;
  root : string;  (* the name of the per-iteration root span *)
  replay_ops : int;  (* ops in a traced replay of a 10 s run *)
  setup : tracer:Trace.t option -> seed:int -> instance;
}

(* Requests or queries drawn from [seed] for loop iteration [i]: every
   iteration owns a split stream, so the inputs of op [i] do not depend
   on how many ops a time-bounded window happened to run before it. *)
let rng_for ~seed i = Mde_prob.Rng.create ~seed:((seed * 1_000_003) + i) ()

let bits = Int64.bits_of_float

let same_float a b = bits a = bits b

let same_ci a b =
  match (a, b) with
  | None, None -> true
  | Some (a0, a1), Some (b0, b1) -> same_float a0 b0 && same_float a1 b1
  | _ -> false

let ms ns = ns *. 1e-6
let us ns = ns *. 1e-3
