type t = { times : float array; values : float array }

let create ~times ~values =
  let n = Array.length times in
  if n = 0 then invalid_arg "Series.create: empty";
  if Array.length values <> n then invalid_arg "Series.create: length mismatch";
  for i = 0 to n - 2 do
    if times.(i) >= times.(i + 1) then
      invalid_arg "Series.create: times must strictly increase"
  done;
  { times = Array.copy times; values = Array.copy values }

let of_pairs pairs =
  let arr = Array.of_list pairs in
  create ~times:(Array.map fst arr) ~values:(Array.map snd arr)

let length t = Array.length t.times
let times t = t.times
let values t = t.values
let time_at t i = t.times.(i)
let value_at t i = t.values.(i)
let start_time t = t.times.(0)
let end_time t = t.times.(Array.length t.times - 1)

let regular_times ~start ~step ~count =
  if not (count > 0 && step > 0.) then
    invalid_arg "Series.regular_times: needs count > 0 and step > 0";
  Array.init count (fun i -> start +. (float_of_int i *. step))

let map_values f t = { t with values = Array.map f t.values }

let sub_before t cutoff =
  let keep = ref 0 in
  Array.iteri (fun i time -> if time <= cutoff then keep := i + 1) t.times;
  if !keep = 0 then invalid_arg "Series.sub_before: cutoff before first observation";
  { times = Array.sub t.times 0 !keep; values = Array.sub t.values 0 !keep }

let locate t x =
  let n = Array.length t.times in
  if n < 2 then 0
  else begin
    (* Binary search for the window [times.(j), times.(j+1)) containing x. *)
    let lo = ref 0 and hi = ref (n - 2) in
    if x <= t.times.(0) then 0
    else if x >= t.times.(n - 2) then n - 2
    else begin
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if t.times.(mid) <= x then lo := mid else hi := mid - 1
      done;
      !lo
    end
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i time -> Format.fprintf ppf "%g\t%.6g@," time t.values.(i))
    t.times;
  Format.fprintf ppf "@]"
