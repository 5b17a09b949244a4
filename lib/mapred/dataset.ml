type 'a t = 'a array array

let of_array ?(partitions = 4) data =
  (* Not an assert: validation must survive [-noassert] builds. *)
  if partitions <= 0 then invalid_arg "Dataset.of_array: partitions must be positive";
  let n = Array.length data in
  if n = 0 then [| [||] |]
  else begin
    let parts = min partitions n in
    let base = n / parts and extra = n mod parts in
    let out = Array.make parts [||] in
    let start = ref 0 in
    for p = 0 to parts - 1 do
      let len = base + if p < extra then 1 else 0 in
      out.(p) <- Array.sub data !start len;
      start := !start + len
    done;
    out
  end

let of_partitions parts =
  if Array.length parts = 0 then
    invalid_arg "Dataset.of_partitions: at least one partition required";
  Array.map Array.copy parts

let to_array t = Array.concat (Array.to_list t)
let partitions t = t
let partition_count = Array.length
let total_length t = Array.fold_left (fun acc p -> acc + Array.length p) 0 t
let map f t = Array.map (Array.map f) t

let mapi f t =
  let counter = ref 0 in
  Array.map
    (Array.map (fun x ->
         let i = !counter in
         incr counter;
         f i x))
    t


let filter pred t = Array.map (fun p -> Array.of_list (List.filter pred (Array.to_list p))) t

let fold f init t = Array.fold_left (Array.fold_left f) init t
let iter f t = Array.iter (Array.iter f) t
