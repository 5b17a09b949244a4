(** Logical query plans and a cost-based optimizer.

    §2.3 argues that composite-model platforms "need to execute queries
    in order to harmonize data between models during a simulation run, so
    that the problem of simulation-experiment optimization subsumes the
    problem of query optimization", with catalog statistics playing the
    same role in both. This module supplies that classical half: a
    logical-plan algebra, catalog-driven cardinality estimation, and the
    two canonical rewrites — selection pushdown and greedy join ordering
    — with the cost model exposed so the savings are observable. *)

type t =
  | Scan of string  (** a catalog table *)
  | Select of Expr.t * t
  | Project of string list * t
  | Join of (string * string) list * t * t  (** equi-join on key pairs *)

val scan : string -> t
val select : Expr.t -> t -> t
val project : string list -> t -> t
val join : on:(string * string) list -> t -> t -> t

val schema_of : Catalog.t -> t -> Schema.t
(** Output schema of the plan. Raises [Not_found] for unknown tables or
    columns. *)

val execute : ?pool:Mde_par.Pool.t -> Catalog.t -> t -> Table.t
(** Evaluate the plan bottom-up on the columnar substrate ({!Columnar}),
    bit-identical to {!execute_rows}: same rows, same order, same float
    bits. [?pool] fans predicate evaluation out row-chunked. *)

val execute_rows : Catalog.t -> t -> Table.t
(** Evaluate the plan row-at-a-time with the {!Algebra} operators — the
    reference semantics the columnar executor is property-tested
    against. *)

(** {2 Cardinality and cost estimation} *)

val estimate_rows : Catalog.t -> t -> float
(** Textbook selectivity model: scans use catalog row counts; an equality
    predicate on column c selects 1/distinct(c); other comparisons 1/3;
    conjunctions multiply, disjunctions add (capped); equi-joins use
    |L|·|R| / max(keys(L), keys(R)), where a side's key count is the
    product of its key columns' distinct counts, at most its estimated
    rows. *)

type cost = {
  estimated_rows : float;  (** of the plan's result *)
  intermediate_rows : float;
      (** Σ of estimated rows produced by every operator — the work a
          pipeline must materialize; the optimizer's objective *)
}

val estimate_cost : Catalog.t -> t -> cost

(** {2 Optimization} *)

val push_selections : Catalog.t -> t -> t
(** Split conjunctive predicates and sink each conjunct to the lowest
    operator whose schema covers its columns (through projections that
    keep the columns, into either side of a join when one side suffices). *)

val order_joins : Catalog.t -> t -> t
(** Flatten chains of inner equi-joins and re-associate them greedily:
    start from the leaf with the smallest estimate, then join the
    connected leaf that gives the smallest estimated intermediate
    result. Each join puts the input with the strictly larger estimate
    on the left, its key pairs flipped to match: {!execute} hashes the
    right side and emits pairs in left-row order, so a large fact table
    probes and keeps its row order. The estimate is symmetric in the
    two inputs, so the orientation changes no {!estimate_cost} figure.
    Only joins whose key pairs remain resolvable against the reordered
    inputs are moved. *)

val optimize : Catalog.t -> t -> t
(** [push_selections] then [order_joins]. Semantics-preserving: the
    optimized plan returns the same rows (possibly in different order,
    with its columns in the oriented joins' order) — property-tested. *)

val pp : Format.formatter -> t -> unit
