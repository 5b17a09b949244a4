(** Contact networks for epidemic simulation (§2.4, Indemics).

    Nodes are individuals carrying demographic attributes and a mutable
    health/behavioural state; edges are social contacts with a duration
    attribute that scales transmission. The synthetic generator stands in
    for Indemics's proprietary regional populations (see DESIGN.md): it
    builds households (complete subgraphs, long contacts), daycare groups
    connecting preschoolers, and random community contacts. *)

type health =
  | Susceptible
  | Exposed
  | Infectious
  | Recovered
  | Vaccinated

val health_name : health -> string

type person = {
  id : int;
  age : int;
  household : int;
  mutable health : health;
  mutable days_in_state : int;
  mutable quarantined_days : int;  (** >0: contacts damped *)
  mutable fear : float;
      (** behavioural state in [0,1] (§2.4's "fear level"): rises with
          infectious contacts, decays otherwise, and dampens contacts when
          the engine's distancing parameter is positive *)
}

type contact = { peer : int; hours : float; kind : string }

type t

val persons : t -> person array
val contacts : t -> int -> contact list
(** Contacts of one person (symmetric). *)

val size : t -> int
val edge_count : t -> int

val synthetic :
  ?seed:int ->
  n:int ->
  community_degree:float ->
  unit ->
  t
(** [n] people in households of 1–5 (ages drawn so that ≈6 % are
    preschoolers, 0–4); preschoolers additionally meet in daycare groups
    of ~8; everyone gets Poisson([community_degree]) random community
    contacts. Raises [Invalid_argument] if [n < 10]. *)

val count_health : t -> health -> int
val mean_fear : t -> float

val churn_community_edges : t -> Mde_prob.Rng.t -> count:int -> unit
(** The paper's "formation of new edges due to new contacts" and edge
    deletion: remove up to [count] random community contacts and create
    [count] fresh ones between random pairs. Household and daycare
    structure is left intact; symmetry is preserved. Raises
    [Invalid_argument] if [count < 0]. *)

val reset : t -> unit
(** All healthy, no quarantines (for reuse across Monte Carlo reps). *)
