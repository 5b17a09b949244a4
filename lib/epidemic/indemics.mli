(** The Indemics division of labour (§2.4, [6]): a simulation kernel (the
    paper's HPC side) advances the contact-network disease dynamics
    between observation times; a relational session (the RDBMS side)
    exposes the current network state as tables so that the experimenter
    can assess subpopulations with SQL-style queries and specify
    interventions as (subset, action) pairs — pausing the simulation,
    querying, intervening, resuming. *)

open Mde_relational

type params = {
  transmission_rate : float;
      (** per contact-hour per day probability scale: P(infect) =
          1 − exp(−rate × hours) *)
  exposed_days_mean : float;  (** geometric-ish dwell in E *)
  infectious_days_mean : float;  (** dwell in I *)
  initial_infectious : int;
  quarantine_damping : float;  (** contact-hour multiplier when quarantined *)
  fear_gain : float;
      (** fear added per infectious contact per day (0 disables the
          behavioural dynamics, the default) *)
  fear_decay : float;  (** per-day relaxation of fear toward 0 *)
  fear_distancing : float;
      (** contact reduction at fear = 1: hours ×= (1 − d·fear) per side *)
  edge_churn_per_1000 : int;
      (** community edges re-wired per day per 1000 people — §2.4's
          "formation of new edges due to new contacts" *)
}

val default_params : params

type t

val create : ?seed:int -> Network.t -> params -> t
(** Resets the network and seeds [initial_infectious] random infections.
    Raises [Invalid_argument] if [initial_infectious < 1]. *)

val network : t -> Network.t
val day : t -> int

val step_day : t -> int
(** Advance one day of disease dynamics (the HPC step); returns the
    number of new infections. *)

(** {2 The relational session} *)

val person_table : t -> Table.t
(** Schema (pid:int, age:int, household:int, health:string,
    quarantined:bool, fear:float) reflecting the current state, so
    behavioural subpopulations ("WHERE fear > 0.5") are queryable like
    everything else. *)

val infected_table : t -> Table.t
(** (pid:int) for currently infectious individuals — the paper's
    [InfectedPerson]. *)

val catalog : t -> Catalog.t
(** A catalog with [Person] and [InfectedPerson] registered, refreshed on
    every call. *)

(** {2 Interventions} *)

type action =
  | Vaccinate  (** susceptible members become immune *)
  | Quarantine of int  (** damp contacts for the given number of days *)

val apply_intervention : t -> pids:int list -> action -> int
(** Apply an action to a subpopulation (typically the pids returned by a
    query); returns how many individuals actually changed state. *)

val vaccinate_preschoolers : t -> int
(** The paper's Algorithm 1 as a {!run} policy, on the columnar engine:
    select the persons aged 0–4 (Preschool), count those among them who
    are infectious by a key join with [InfectedPerson], and when that
    exceeds 1 % of Preschool, {!apply_intervention} [Vaccinate] on every
    preschooler in pid order. Returns the number vaccinated (0 when the
    threshold is not crossed). *)

val close_contacts : t -> kind:string -> days:int -> unit
(** A structural intervention — the paper's "deletion of edges" case:
    damp every contact of the given kind (e.g. ["daycare"]) by the
    quarantine damping factor for the given number of days. Extends any
    active closure of the same kind. Raises [Invalid_argument] if
    [days <= 0]. *)

val active_closures : t -> (string * int) list
(** Contact kinds currently closed, with remaining days. *)

(** {2 Experiment driver} *)

type day_record = {
  day : int;
  susceptible : int;
  exposed : int;
  infectious : int;
  recovered : int;
  vaccinated : int;
  new_infections : int;
  interventions_applied : int;
}

val run :
  ?observe_every:int -> t -> days:int -> policy:(t -> int) option -> day_record array
(** Simulate [days] days; the HPC kernel advances the network between
    observation times, and at every [observe_every]-th day (default 1)
    the optional policy runs with query access to the session and
    returns how many individuals it intervened on (Algorithm 1 style).
    Record 0 is the initial state. Raises [Invalid_argument] if
    [days < 0] or [observe_every < 1]. *)

val attack_rate : day_record array -> float
(** Fraction ever infected by the end (recovered + infectious + exposed
    over population). Raises [Invalid_argument] on an empty array. *)

(** {2 Performance measures} *)

type cost_params = {
  infection_cost : float;  (** per person ever infected *)
  vaccination_cost : float;  (** per dose *)
  closure_day_cost : float;  (** per day a contact kind stays closed *)
}

val default_cost_params : cost_params

val economic_cost : t -> cost_params -> day_record array -> float
(** The "economic damage" objective of §2.4: infections + doses +
    closure-days, each at its unit cost, over a completed run. Raises
    [Invalid_argument] on an empty record array. *)
