module Clock = struct
  type t = unit -> float

  let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
end

let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 5e-4; 1e-3; 5e-3; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10. |]

module Counter = struct
  type t = Noop | Live of int Atomic.t

  let incr = function Noop -> () | Live a -> Atomic.incr a

  let add t n =
    match t with
    | Noop -> ()
    | Live a ->
      if n < 0 then invalid_arg "Obs.Counter.add: counters are monotonic";
      ignore (Atomic.fetch_and_add a n)

  let value = function Noop -> 0 | Live a -> Atomic.get a
end

module Gauge = struct
  type t = Noop | Live of float Atomic.t

  let set t v = match t with Noop -> () | Live a -> Atomic.set a v

  let add t v =
    match t with
    | Noop -> ()
    | Live a ->
      let rec go () =
        let cur = Atomic.get a in
        if not (Atomic.compare_and_set a cur (cur +. v)) then go ()
      in
      go ()

  let value = function Noop -> 0. | Live a -> Atomic.get a
end

module Histogram = struct
  type live = {
    bounds : float array;  (* strictly increasing upper bounds *)
    counts : int array;  (* length bounds + 1; last slot is the +inf overflow *)
    mutable h_sum : float;
    mutable h_count : int;
    mutable h_min : float;
    mutable h_max : float;
    lock : Mutex.t;
  }

  type t = Noop | Live of live

  let make bounds =
    {
      bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      h_sum = 0.;
      h_count = 0;
      h_min = infinity;
      h_max = neg_infinity;
      lock = Mutex.create ();
    }

  let observe t v =
    match t with
    | Noop -> ()
    | Live h ->
      Mutex.lock h.lock;
      let n = Array.length h.bounds in
      let i = ref 0 in
      while !i < n && v > h.bounds.(!i) do
        incr i
      done;
      h.counts.(!i) <- h.counts.(!i) + 1;
      h.h_sum <- h.h_sum +. v;
      h.h_count <- h.h_count + 1;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      Mutex.unlock h.lock

  let count = function Noop -> 0 | Live h -> h.h_count
  let sum = function Noop -> 0. | Live h -> h.h_sum

  let quantile t p =
    if not (p >= 0. && p <= 1.) then
      invalid_arg "Obs.Histogram.quantile: p must be in [0,1]";
    match t with
    | Noop -> Float.nan
    | Live h ->
      Mutex.lock h.lock;
      let result =
        if h.h_count = 0 then Float.nan
        else begin
          (* Nearest rank: the ⌈p·count⌉-th observation (1-based). *)
          let rank = Stdlib.max 1 (int_of_float (ceil (p *. float_of_int h.h_count))) in
          let n = Array.length h.bounds in
          let rec go i acc =
            let acc = acc + h.counts.(i) in
            if acc >= rank then
              if i = n then h.h_max else Float.min h.bounds.(i) h.h_max
            else go (i + 1) acc
          in
          go 0 0
        end
      in
      Mutex.unlock h.lock;
      result
end

(* --- registry --- *)

type labels = (string * string) list

type metric =
  | Mcounter of int Atomic.t
  | Mgauge of float Atomic.t
  | Mhist of Histogram.live

type registered = { r_name : string; r_help : string; r_labels : labels; r_metric : metric }
type span = { name : string; depth : int; start : float; stop : float }

type span_cell = {
  s_name : string;
  s_depth : int;
  s_start : float;
  mutable s_stop : float;
}

type live_registry = {
  lock : Mutex.t;
  tbl : (string * labels, registered) Hashtbl.t;
  mutable rev_order : registered list;  (* registration order, newest first *)
  mutable span_buf : span_cell array;
  mutable span_len : int;
  mutable span_depth : int;
  mutable dropped : int;
}

type t = Noop | Live of live_registry

let span_capacity = 8192

let create () =
  Live
    {
      lock = Mutex.create ();
      tbl = Hashtbl.create 64;
      rev_order = [];
      span_buf = [||];
      span_len = 0;
      span_depth = 0;
      dropped = 0;
    }

let noop = Noop
let enabled = function Noop -> false | Live _ -> true

(* The process-wide default, read by instrumented constructors. *)
let global = Atomic.make Noop
let set_default t = Atomic.set global t
let default () = Atomic.get global

let valid_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

let valid_label_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let kind_of = function
  | Mcounter _ -> "counter"
  | Mgauge _ -> "gauge"
  | Mhist _ -> "histogram"

(* Get-or-register under the registry lock; idempotent per (name,
   labels). [make] builds the cell only on first registration. *)
let register r ~name ~help ~labels make =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Obs: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Obs: invalid label name %S on %s" k name))
    labels;
  Mutex.lock r.lock;
  let reg =
    match Hashtbl.find_opt r.tbl (name, labels) with
    | Some existing -> existing
    | None ->
      let reg = { r_name = name; r_help = help; r_labels = labels; r_metric = make () } in
      Hashtbl.replace r.tbl (name, labels) reg;
      r.rev_order <- reg :: r.rev_order;
      reg
  in
  Mutex.unlock r.lock;
  reg

let type_clash name want got =
  invalid_arg
    (Printf.sprintf "Obs: %s already registered as a %s, requested as a %s" name
       (kind_of got) want)

let counter t ?(help = "") ?(labels = []) name =
  match t with
  | Noop -> Counter.Noop
  | Live r -> (
    let reg = register r ~name ~help ~labels (fun () -> Mcounter (Atomic.make 0)) in
    match reg.r_metric with
    | Mcounter a -> Counter.Live a
    | other -> type_clash name "counter" other)

let gauge t ?(help = "") ?(labels = []) name =
  match t with
  | Noop -> Gauge.Noop
  | Live r -> (
    let reg = register r ~name ~help ~labels (fun () -> Mgauge (Atomic.make 0.)) in
    match reg.r_metric with
    | Mgauge a -> Gauge.Live a
    | other -> type_clash name "gauge" other)

let histogram t ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
  match t with
  | Noop -> Histogram.Noop
  | Live r ->
    Array.iteri
      (fun i b ->
        if i > 0 && not (b > buckets.(i - 1)) then
          invalid_arg
            (Printf.sprintf "Obs: histogram %s buckets must be strictly increasing" name))
      buckets;
    (let reg =
       register r ~name ~help ~labels (fun () -> Mhist (Histogram.make (Array.copy buckets)))
     in
     match reg.r_metric with
     | Mhist h -> Histogram.Live h
     | other -> type_clash name "histogram" other)

(* --- spans --- *)

let dummy_cell = { s_name = ""; s_depth = 0; s_start = 0.; s_stop = 0. }

let with_span t ?(clock = Clock.wall) ~name f =
  match t with
  | Noop -> f ()
  | Live r ->
    Mutex.lock r.lock;
    let cell =
      if r.span_len >= span_capacity then begin
        r.dropped <- r.dropped + 1;
        None
      end
      else begin
        if r.span_len >= Array.length r.span_buf then begin
          let grown =
            Array.make (Stdlib.max 64 (2 * Array.length r.span_buf)) dummy_cell
          in
          Array.blit r.span_buf 0 grown 0 r.span_len;
          r.span_buf <- grown
        end;
        let c =
          { s_name = name; s_depth = r.span_depth; s_start = clock (); s_stop = Float.nan }
        in
        r.span_buf.(r.span_len) <- c;
        r.span_len <- r.span_len + 1;
        Some c
      end
    in
    r.span_depth <- r.span_depth + 1;
    Mutex.unlock r.lock;
    let finish () =
      Mutex.lock r.lock;
      r.span_depth <- r.span_depth - 1;
      (match cell with Some c -> c.s_stop <- clock () | None -> ());
      Mutex.unlock r.lock
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt)

let spans t =
  match t with
  | Noop -> []
  | Live r ->
    Mutex.lock r.lock;
    let out =
      List.init r.span_len (fun i ->
          let c = r.span_buf.(i) in
          { name = c.s_name; depth = c.s_depth; start = c.s_start; stop = c.s_stop })
    in
    Mutex.unlock r.lock;
    out

let spans_dropped = function Noop -> 0 | Live r -> r.dropped

(* --- export --- *)

module Export = struct
  let float_str v =
    if Float.is_nan v then "NaN"
    else if v = infinity then "+Inf"
    else if v = neg_infinity then "-Inf"
    else Printf.sprintf "%.17g" v

  let escape_label_value s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let render_labels = function
    | [] -> ""
    | labels ->
      Printf.sprintf "{%s}"
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
              labels))

  let ordered r =
    Mutex.lock r.lock;
    let regs = List.rev r.rev_order in
    Mutex.unlock r.lock;
    regs

  let prometheus t =
    match t with
    | Noop -> ""
    | Live r ->
      let buf = Buffer.create 1024 in
      let headers_done = Hashtbl.create 16 in
      List.iter
        (fun reg ->
          if not (Hashtbl.mem headers_done reg.r_name) then begin
            Hashtbl.add headers_done reg.r_name ();
            if reg.r_help <> "" then
              Buffer.add_string buf
                (Printf.sprintf "# HELP %s %s\n" reg.r_name reg.r_help);
            Buffer.add_string buf
              (Printf.sprintf "# TYPE %s %s\n" reg.r_name (kind_of reg.r_metric))
          end;
          let lbl = render_labels reg.r_labels in
          match reg.r_metric with
          | Mcounter a ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %d\n" reg.r_name lbl (Atomic.get a))
          | Mgauge a ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" reg.r_name lbl (float_str (Atomic.get a)))
          | Mhist h ->
            Mutex.lock h.Histogram.lock;
            let cumulative = ref 0 in
            Array.iteri
              (fun i c ->
                cumulative := !cumulative + c;
                if i < Array.length h.Histogram.bounds then
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" reg.r_name
                       (render_labels
                          (reg.r_labels
                          @ [ ("le", float_str h.Histogram.bounds.(i)) ]))
                       !cumulative))
              h.Histogram.counts;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" reg.r_name
                 (render_labels (reg.r_labels @ [ ("le", "+Inf") ]))
                 h.Histogram.h_count);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" reg.r_name lbl
                 (float_str h.Histogram.h_sum));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" reg.r_name lbl h.Histogram.h_count);
            Mutex.unlock h.Histogram.lock)
        (ordered r);
      Buffer.contents buf

  (* JSON: non-finite floats are not representable, so they render as
     null — same convention as the benchmark emitter. *)
  let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

  let json_labels labels =
    Printf.sprintf "{%s}"
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) labels))

  let json t =
    match t with
    | Noop -> "{\"metrics\": [], \"spans\": [], \"spans_dropped\": 0}"
    | Live r ->
      let metric_json reg =
        let common =
          Printf.sprintf "\"name\": %S, \"labels\": %s" reg.r_name
            (json_labels reg.r_labels)
        in
        match reg.r_metric with
        | Mcounter a ->
          Printf.sprintf "{\"type\": \"counter\", %s, \"value\": %d}" common
            (Atomic.get a)
        | Mgauge a ->
          Printf.sprintf "{\"type\": \"gauge\", %s, \"value\": %s}" common
            (json_float (Atomic.get a))
        | Mhist h ->
          Mutex.lock h.Histogram.lock;
          let cumulative = ref 0 in
          let buckets =
            String.concat ", "
              (List.init
                 (Array.length h.Histogram.bounds)
                 (fun i ->
                   cumulative := !cumulative + h.Histogram.counts.(i);
                   Printf.sprintf "{\"le\": %s, \"count\": %d}"
                     (json_float h.Histogram.bounds.(i))
                     !cumulative))
          in
          let count = h.Histogram.h_count and sum = h.Histogram.h_sum in
          Mutex.unlock h.Histogram.lock;
          let q p = json_float (Histogram.quantile (Histogram.Live h) p) in
          Printf.sprintf
            "{\"type\": \"histogram\", %s, \"count\": %d, \"sum\": %s, \"p50\": %s, \
             \"p90\": %s, \"p95\": %s, \"p99\": %s, \"buckets\": [%s]}"
            common count (json_float sum) (q 0.5) (q 0.9) (q 0.95) (q 0.99) buckets
      in
      let metrics = String.concat ", " (List.map metric_json (ordered r)) in
      let span_json (s : span) =
        Printf.sprintf "{\"name\": %S, \"depth\": %d, \"start\": %s, \"stop\": %s}"
          s.name s.depth (json_float s.start) (json_float s.stop)
      in
      let spans_s = String.concat ", " (List.map span_json (spans t)) in
      Printf.sprintf "{\"metrics\": [%s], \"spans\": [%s], \"spans_dropped\": %d}"
        metrics spans_s (spans_dropped t)

  (* --- exposition-format validation (the CI gate) --- *)

  let split_lines s = String.split_on_char '\n' s

  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix

  let validate_sample_line line =
    (* name[{labels}] value *)
    let name_end =
      let rec go i =
        if i >= String.length line then i
        else
          match line.[i] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> go (i + 1)
          | _ -> i
      in
      go 0
    in
    if name_end = 0 || not (valid_name (String.sub line 0 name_end)) then
      Error "invalid metric name"
    else
      let rest = String.sub line name_end (String.length line - name_end) in
      let after_labels =
        if rest <> "" && rest.[0] = '{' then begin
          (* Scan the label block: k="v" pairs, quotes balanced, comma
             separated; label values may contain escaped quotes. *)
          let n = String.length rest in
          let rec scan i in_quotes =
            if i >= n then Error "unterminated label block"
            else if in_quotes then
              match rest.[i] with
              | '\\' -> if i + 1 < n then scan (i + 2) true else Error "dangling escape"
              | '"' -> scan (i + 1) false
              | _ -> scan (i + 1) true
            else
              match rest.[i] with
              | '"' -> scan (i + 1) true
              | '}' -> Ok (String.sub rest (i + 1) (n - i - 1))
              | _ -> scan (i + 1) false
          in
          scan 1 false
        end
        else Ok rest
      in
      match after_labels with
      | Error _ as e -> e
      | Ok rest ->
        if not (starts_with " " rest) then Error "expected space before value"
        else
          let value = String.trim rest in
          if value = "" then Error "missing value"
          else (
            match float_of_string_opt (String.lowercase_ascii value) with
            | Some _ -> Ok ()
            | None -> Error (Printf.sprintf "unparseable value %S" value))

  let validate_prometheus s =
    let rec go lineno = function
      | [] -> Ok ()
      | "" :: rest -> go (lineno + 1) rest
      | line :: rest ->
        let verdict =
          if line.[0] = '#' then
            if starts_with "# HELP " line || starts_with "# TYPE " line then Ok ()
            else Error "comment is neither # HELP nor # TYPE"
          else validate_sample_line line
        in
        (match verdict with
        | Ok () -> go (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s: %s" lineno msg line))
    in
    go 1 (split_lines s)
end
