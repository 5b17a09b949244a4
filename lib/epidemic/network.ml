module Rng = Mde_prob.Rng
module Dist = Mde_prob.Dist

type health = Susceptible | Exposed | Infectious | Recovered | Vaccinated

let health_name = function
  | Susceptible -> "S"
  | Exposed -> "E"
  | Infectious -> "I"
  | Recovered -> "R"
  | Vaccinated -> "V"

type person = {
  id : int;
  age : int;
  household : int;
  mutable health : health;
  mutable days_in_state : int;
  mutable quarantined_days : int;
  mutable fear : float;
}

type contact = { peer : int; hours : float; kind : string }

type t = { persons : person array; adjacency : contact list array }

let persons t = t.persons
let contacts t i = t.adjacency.(i)
let size t = Array.length t.persons

let edge_count t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.adjacency / 2

let add_edge t i j hours kind =
  if i <> j then begin
    t.adjacency.(i) <- { peer = j; hours; kind } :: t.adjacency.(i);
    t.adjacency.(j) <- { peer = i; hours; kind } :: t.adjacency.(j)
  end

(* Age distribution loosely shaped like a national pyramid: ~6% are 0-4. *)
let sample_age rng =
  let u = Rng.float rng in
  if u < 0.06 then Rng.int rng 5
  else if u < 0.24 then 5 + Rng.int rng 13 (* school age *)
  else if u < 0.80 then 18 + Rng.int rng 47 (* adults *)
  else 65 + Rng.int rng 30

let synthetic ?(seed = 3) ~n ~community_degree () =
  if n < 10 then invalid_arg "Network.synthetic: n must be at least 10";
  let rng = Rng.create ~seed () in
  let persons = Array.make n { id = 0; age = 0; household = 0; health = Susceptible; days_in_state = 0; quarantined_days = 0; fear = 0. } in
  (* Assign people to households of size 1-5. *)
  let household = ref 0 in
  let i = ref 0 in
  let household_members = ref [] in
  while !i < n do
    let hh_size = Stdlib.min (n - !i) (1 + Rng.int rng 5) in
    let members = List.init hh_size (fun k -> !i + k) in
    List.iter
      (fun id ->
        persons.(id) <-
          {
            id;
            age = sample_age rng;
            household = !household;
            health = Susceptible;
            days_in_state = 0;
            quarantined_days = 0;
            fear = 0.;
          })
      members;
    household_members := members :: !household_members;
    incr household;
    i := !i + hh_size
  done;
  let t = { persons; adjacency = Array.make n [] } in
  (* Household contacts: complete subgraph, long exposure. *)
  List.iter
    (fun members ->
      List.iteri
        (fun k a ->
          List.iteri (fun l b -> if l > k then add_edge t a b 8.0 "household") members)
        members)
    !household_members;
  (* Daycare groups among preschoolers. *)
  let preschoolers =
    Array.of_list
      (List.filter (fun id -> persons.(id).age <= 4) (List.init n Fun.id))
  in
  Rng.shuffle_in_place rng preschoolers;
  let group_size = 8 in
  Array.iteri
    (fun idx _ ->
      let group = idx / group_size in
      let pos = idx mod group_size in
      (* Connect to earlier members of the same group. *)
      for other = group * group_size to (group * group_size) + pos - 1 do
        add_edge t preschoolers.(idx) preschoolers.(other) 5.0 "daycare"
      done)
    preschoolers;
  (* Random community contacts. *)
  let n_community =
    Dist.sample_discrete (Dist.Poisson (community_degree *. float_of_int n /. 2.)) rng
  in
  for _ = 1 to n_community do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then add_edge t a b (Rng.float_range rng 0.5 3.0) "community"
  done;
  t

let count_health t h =
  Array.fold_left (fun acc p -> if p.health = h then acc + 1 else acc) 0 t.persons

let reset t =
  Array.iter
    (fun p ->
      p.health <- Susceptible;
      p.days_in_state <- 0;
      p.quarantined_days <- 0;
      p.fear <- 0.)
    t.persons

let mean_fear t =
  let acc = Array.fold_left (fun acc p -> acc +. p.fear) 0. t.persons in
  acc /. float_of_int (Stdlib.max 1 (Array.length t.persons))

let churn_community_edges t rng ~count =
  if count < 0 then invalid_arg "Network.churn_community_edges: count must be non-negative";
  let n = Array.length t.persons in
  (* Deletion: pick random people with community contacts and drop one. *)
  let removed = ref 0 in
  let attempts = ref 0 in
  while !removed < count && !attempts < count * 20 do
    incr attempts;
    let a = Rng.int rng n in
    let community =
      List.filter (fun c -> c.kind = "community") t.adjacency.(a)
    in
    match community with
    | [] -> ()
    | cs ->
      let victim = List.nth cs (Rng.int rng (List.length cs)) in
      let b = victim.peer in
      let drop_one person peer =
        let seen = ref false in
        t.adjacency.(person) <-
          List.filter
            (fun c ->
              if (not !seen) && c.kind = "community" && c.peer = peer then begin
                seen := true;
                false
              end
              else true)
            t.adjacency.(person)
      in
      drop_one a b;
      drop_one b a;
      incr removed
  done;
  (* Formation: the same number of fresh random community contacts. *)
  for _ = 1 to !removed do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then add_edge t a b (Rng.float_range rng 0.5 3.0) "community"
  done
