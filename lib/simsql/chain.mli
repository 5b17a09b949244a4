(** Database-valued Markov chains — SimSQL's extension of MCDB (§2.1).

    Where MCDB draws realizations of a static stochastic database D,
    SimSQL generates D[0], D[1], D[2], … where the stochastic mechanism
    producing D[i] may depend on D[i−1]: stochastic tables parametrize
    each other, recursively and across versions. Here a chain is an
    initial-state sampler plus a transition kernel over named-table
    states; {!Rules} builds transitions from per-table derivation rules
    so that "table A parametrizes table B which parametrizes the next
    version of A" is expressed directly. *)

open Mde_relational

type state
(** An immutable database state: a set of named tables. *)

val state_of_tables : (string * Table.t) list -> state
val table : state -> string -> Table.t
(** Raises [Not_found]. *)

val table_opt : state -> string -> Table.t option
val table_names : state -> string list
val with_table : state -> string -> Table.t -> state
(** Functional update. *)

type t = {
  initial : Mde_prob.Rng.t -> state;  (** sampler for D[0] *)
  transition : Mde_prob.Rng.t -> state -> state;  (** D[i] from D[i−1] *)
}

val simulate : t -> Mde_prob.Rng.t -> steps:int -> state array
(** One realization of D[0..steps] (length steps+1). Raises
    [Invalid_argument] on negative [steps]. *)

val simulate_query :
  t -> Mde_prob.Rng.t -> steps:int -> query:(state -> float) -> float array
(** One realization, reduced to a per-version scalar time series. *)

val monte_carlo :
  ?pool:Mde_par.Pool.t ->
  t ->
  Mde_prob.Rng.t ->
  steps:int ->
  reps:int ->
  query:(state -> float) ->
  float array array
(** [reps] independent realizations; result is reps × (steps+1). Each
    replication runs on a pre-split RNG stream, so with [?pool] the
    replications fan out across domains with bit-identical output.
    Raises [Invalid_argument] unless [reps] is positive. *)

val final_values :
  ?pool:Mde_par.Pool.t ->
  t ->
  Mde_prob.Rng.t ->
  steps:int ->
  reps:int ->
  query:(state -> float) ->
  float array
(** Column [steps] of {!monte_carlo} with the same arguments, bit for
    bit, computed keeping one state per replication and running [query]
    once, on D[steps]. [query] must draw no randomness (it gets no
    stream). Raises [Invalid_argument] unless [reps] is positive and
    [steps] non-negative. *)

(** Transition kernels assembled from per-table rules, applied in list
    order. Each rule sees the state as already updated by the preceding
    rules of the same step — matching SimSQL's topologically-ordered
    evaluation of dependent stochastic tables — and reads the pre-step
    version of any table not yet updated. *)
module Rules : sig
  type rule = {
    target : string;  (** table (version) this rule derives *)
    derive : Mde_prob.Rng.t -> state -> Table.t;
  }

  val vg_rule :
    target:string ->
    schema:Schema.t ->
    driver:(state -> Table.t) ->
    vg:Mde_mcdb.Vg.t ->
    params:(state -> Table.row -> Table.t list) ->
    combine:(Table.row -> Table.row -> Table.row) ->
    rule
  (** A rule that instantiates an MCDB-style stochastic table whose
      driver and VG parameters are queries over the current state —
      stochastic tables parametrized by stochastic tables. *)

  val plan_rule :
    ?pool:Mde_par.Pool.t ->
    target:string ->
    Mde_relational.Plan.t ->
    rule
  (** A deterministic rule: derive [target] by executing a relational
      plan over the current state's tables on the columnar substrate —
      chain steps and one-shot queries share one execution layer. Scans
      resolve against a catalog holding every table of the state. *)

  val transition : rule list -> Mde_prob.Rng.t -> state -> state
end
