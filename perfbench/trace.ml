(* In-memory span recorder for the traced run.

   Spans are recorded from benchmark code only: around calls into each
   layer's public functions and around the model closures the benchmark
   registers. Each span has a name, start, stop, parent and op id, kept
   in flat growable int arrays (no allocation per span once grown) and
   exported when the run ends.

   Model closures that run thousands of times per op (VG draws, chain
   transitions, composite stages) would swamp memory as individual
   spans, so they go through [timed]: an aggregate per-name timer. Every
   span also records how much aggregate-timer time elapsed inside it,
   which keeps self times exact: a span's self time is its duration
   minus what its direct child spans and the aggregate timers directly
   inside it cover. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable totals : int array;  (* live ns per name id, spans and timers *)
  mutable calls : int array;  (* live calls per name id *)
  mutable on : bool;
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable fine_in : int array;
  mutable stack : int list;
  mutable cur_op : int;
  mutable fine_total : int;
  fine : (string, int) Hashtbl.t;  (* aggregate timer name -> name id *)
}

let create () =
  let cap = 1024 in
  {
    names = Hashtbl.create 64;
    name_of = [||];
    totals = [||];
    calls = [||];
    on = false;
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
    fine_in = Array.make cap 0;
    stack = [];
    cur_op = 0;
    fine_total = 0;
    fine = Hashtbl.create 8;
  }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.add t.names s i;
    t.name_of <- Array.append t.name_of [| s |];
    t.totals <- Array.append t.totals [| 0 |];
    t.calls <- Array.append t.calls [| 0 |];
    i

let set_op t op = t.cur_op <- op

let grow t =
  let g a = Array.append a (Array.make (Array.length a) 0) in
  t.name <- g t.name;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.op <- g t.op;
  t.fine_in <- g t.fine_in

let enter t id =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- id;
  t.parent.(i) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.op.(i) <- t.cur_op;
  t.fine_in.(i) <- t.fine_total;
  t.stack <- i :: t.stack;
  t.start.(i) <- now_ns ();
  i

let leave t i =
  t.stop.(i) <- now_ns ();
  t.fine_in.(i) <- t.fine_total - t.fine_in.(i);
  t.totals.(t.name.(i)) <- t.totals.(t.name.(i)) + t.stop.(i) - t.start.(i);
  t.calls.(t.name.(i)) <- t.calls.(t.name.(i)) + 1;
  match t.stack with _ :: rest -> t.stack <- rest | [] -> ()

(* [span tr name f]: [f ()] under a span; a plain call when [tr] is
   [None] or switched off, so the plain run and the untraced set-up
   execute the identical call sequence. *)
let span tr name f =
  match tr with
  | Some t when t.on -> (
    let i = enter t (intern t name) in
    match f () with
    | v ->
      leave t i;
      v
    | exception e ->
      leave t i;
      raise e)
  | _ -> f ()

let timed tr name f =
  match tr with
  | Some t when t.on -> (
    let id =
      match Hashtbl.find_opt t.fine name with
      | Some id -> id
      | None ->
        let id = intern t name in
        Hashtbl.add t.fine name id;
        id
    in
    let t0 = now_ns () in
    let finish () =
      let d = now_ns () - t0 in
      t.totals.(id) <- t.totals.(id) + d;
      t.calls.(id) <- t.calls.(id) + 1;
      t.fine_total <- t.fine_total + d
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)
  | _ -> f ()

let set_on t on = t.on <- on
let active = function Some t -> t.on | None -> false

(* Time accumulated so far by the spans or the aggregate timer called
   [name], to difference around a region of the run. *)
let total t name =
  match Hashtbl.find_opt t.names name with Some i -> t.totals.(i) | None -> 0

(* All aggregate-timer time so far. *)
let fine_total t = t.fine_total

let dur t i = t.stop.(i) - t.start.(i)

(* Self time of every span, in ns. *)
let self_times t =
  let self = Array.init t.n (fun i -> dur t i - t.fine_in.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - dur t i + t.fine_in.(i)
  done;
  self

(* Mean time per call of the spans or aggregate timer called [name], in
   ns ([0.] when it never ran). *)
let mean_ns t name =
  match Hashtbl.find_opt t.names name with
  | Some i when t.calls.(i) > 0 -> float_of_int t.totals.(i) /. float_of_int t.calls.(i)
  | _ -> 0.

(* The share of root-span time that no child span or aggregate timer
   covers: benchmark loop overhead plus any layer the trace misses. *)
let unattributed_share t ~root =
  let self = self_times t in
  let covered = ref 0 and total = ref 0 in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 && t.name_of.(t.name.(i)) = root then begin
      total := !total + dur t i;
      covered := !covered + dur t i - self.(i)
    end
  done;
  if !total = 0 then 0. else 1. -. (float_of_int !covered /. float_of_int !total)

(* The per-layer self-time table, one block per root span name: the
   op's own root first, with each layer's share of op time, then the
   regions the benchmark runs outside its ops (probes, answer checks,
   operator replays). Printed as comment lines. *)
let summary t ~root oc =
  let self = self_times t in
  let top = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    top.(i) <- (if t.parent.(i) < 0 then i else top.(t.parent.(i)))
  done;
  (* (root name, span name) -> calls, total ns, self ns *)
  let acc = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let key = (t.name_of.(t.name.(top.(i))), t.name_of.(t.name.(i))) in
    let calls, total, self_ns = Option.value (Hashtbl.find_opt acc key) ~default:(0, 0, 0) in
    Hashtbl.replace acc key (calls + 1, total + dur t i, self_ns + self.(i))
  done;
  let roots =
    Hashtbl.fold (fun (r, n) _ a -> if r = n && not (List.mem r a) then r :: a else a) acc []
  in
  let roots = root :: List.sort compare (List.filter (( <> ) root) roots) in
  List.iter
    (fun r ->
      let _, root_total, _ = Hashtbl.find acc (r, r) in
      let root_ns = float_of_int root_total in
      Printf.fprintf oc "# spans under %s%s: calls, total, self time, self share of %s time\n" r
        (if r = root then " (the op)" else " (outside the op)")
        r;
      Hashtbl.fold (fun (r', n) l a -> if r' = r then (n, l) :: a else a) acc []
      |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)
      |> List.iter (fun (name, (calls, total, self_ns)) ->
             Printf.fprintf oc "#   %-22s %8d  %11.3f ms  %11.3f ms  %5.1f%%\n" name calls
               (float_of_int total *. 1e-6)
               (float_of_int self_ns *. 1e-6)
               (100. *. float_of_int self_ns /. root_ns)))
    roots;
  Printf.fprintf oc "# aggregate timers (model closures, inside the spans above):\n";
  Hashtbl.iter
    (fun name id ->
      Printf.fprintf oc "#   %-22s %8d  %11.3f ms\n" name t.calls.(id)
        (float_of_int t.totals.(id) *. 1e-6))
    t.fine;
  Printf.fprintf oc "# unattributed: %.2f%% of %s time is covered by no span or timer\n"
    (100. *. unattributed_share t ~root)
    root

(* Chrome trace-event JSON ("X" complete events, microsecond times);
   Perfetto and chrome://tracing open it. *)
let write_chrome t path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.start.(0) else 0 in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"op\":%d,\"parent\":%d}}"
      t.name_of.(t.name.(i))
      (float_of_int (t.start.(i) - t0) *. 1e-3)
      (float_of_int (dur t i) *. 1e-3)
      t.op.(i) t.parent.(i)
  done;
  output_string oc "],\"displayTimeUnit\":\"ns\"}\n";
  close_out oc
