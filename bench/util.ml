(* Shared rendering helpers for the experiment harness. *)

let section id title =
  Format.printf "@.=== %s: %s ===@.@." id title

let note fmt = Format.printf ("  " ^^ fmt ^^ "@.")

let table header rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Format.printf "%s%*s" (if i = 0 then "  " else "  ") (List.nth widths i) cell)
      cells;
    Format.printf "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x
let f4 x = Printf.sprintf "%.4f" x
let g3 x = Printf.sprintf "%.3g" x
let i d = string_of_int d
let pct x = Printf.sprintf "%.1f%%" (100. *. x)

let spark values =
  (* Unicode-free sparkline for a series. *)
  let glyphs = [| '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |] in
  let lo = Array.fold_left Float.min infinity values in
  let hi = Array.fold_left Float.max neg_infinity values in
  let span = if hi > lo then hi -. lo else 1. in
  String.init (Array.length values) (fun idx ->
      let level =
        Float.to_int ((values.(idx) -. lo) /. span *. 7.999)
      in
      glyphs.(max 0 (min 7 level)))

(* One timed section: wall seconds and the bytes it allocated
   ([Mde_obs.allocated_words], minor heap included). *)
type timing = { seconds : float; alloc_bytes : float }

let timed f =
  let a0 = Mde.Obs.allocated_words () in
  let t0 = Mde.Obs.Clock.wall () in
  let x = f () in
  let seconds = Mde.Obs.Clock.wall () -. t0 in
  let words = Mde.Obs.allocated_words () -. a0 in
  (x, { seconds; alloc_bytes = words *. float_of_int (Sys.word_size / 8) })

let min_timing a b =
  {
    seconds = Float.min a.seconds b.seconds;
    alloc_bytes = Float.min a.alloc_bytes b.alloc_bytes;
  }
