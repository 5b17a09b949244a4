(* Machine speed, measured in the same run as the workload.

   The benchmark shares a few cores of a host with other tenants, and
   how fast a core runs OCaml code drifts by a factor of two over
   minutes as the host's load changes. Every run therefore also times a
   fixed reference computation, at regular points through its set-ups
   and its window, and scales its time figures to a nominal speed at
   which the reference takes [reference_ns].

   The reference is plain OCaml of the kind the workloads run (string
   hashing, a balanced-tree map, a list sort, all allocating) and uses
   no code of the program under test. It runs in a helper process
   forked before any workload is built, so its minor and major
   collections never touch the workload's heap: nothing the program
   does to its own memory can change what the reference measures.
   [run.py] pins the benchmark to one core, which the helper inherits,
   so the reference times the core the workload runs on; on another
   core it tracked the workload's speed much less well. *)

module SM = Map.Make (String)

let keys = Array.init 2000 (fun i -> Printf.sprintf "key-%d-%d" (i * 7919 mod 2000) i)

let reference () =
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) keys;
  let s = ref 0 in
  for r = 0 to 3 do
    Array.iter (fun k -> s := !s + (Hashtbl.find h k lxor r)) keys
  done;
  let m = Array.fold_left (fun m k -> SM.add k (String.length k) m) SM.empty keys in
  let l = List.sort compare (List.init 3000 (fun i -> (i * 7919) land 4095)) in
  !s + SM.cardinal m + List.hd l

(* The reference's time at the nominal speed the figures are scaled to. *)
let reference_ns = 2_000_000.

type t = { to_helper : out_channel; from_helper : in_channel; pid : int }

(* Fork the helper. It times one reference run per byte it reads and
   answers with the ns it took. It exits when its pipe closes, which
   happens, and is waited for, at this process's exit on every path
   through [at_exit]; if this process is killed, the helper sees the
   pipe close and exits too. *)
let start () =
  flush_all ();
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let ans_r, ans_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close ans_r;
    let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr ans_w in
    (try
       while true do
         ignore (input_char ic);
         let t0 = Trace.now_ns () in
         ignore (Sys.opaque_identity (reference ()));
         Printf.fprintf oc "%d\n%!" (Trace.now_ns () - t0)
       done
     with End_of_file | Sys_error _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close ans_w;
    let t =
      {
        to_helper = Unix.out_channel_of_descr req_w;
        from_helper = Unix.in_channel_of_descr ans_r;
        pid;
      }
    in
    let stopped = ref false in
    at_exit (fun () ->
        if not !stopped then begin
          stopped := true;
          close_out_noerr t.to_helper;
          close_in_noerr t.from_helper;
          try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ()
        end);
    t

(* The ns of one reference run, timed by the helper while this process
   waits for the answer. *)
let sample t =
  output_char t.to_helper 'x';
  flush t.to_helper;
  float_of_int (int_of_string (input_line t.from_helper))
