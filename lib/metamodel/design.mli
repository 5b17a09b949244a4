(** Experimental designs (§4.2). A design is a runs × factors matrix of
    coded levels: ±1 for two-level (fractional) factorials, centered
    integer levels (e.g. −4..4) for Latin hypercubes. *)

type t = float array array
(** runs × factors. *)

val runs : t -> int
val factors : t -> int

val full_factorial : int -> t
(** All 2^k combinations of ±1 for k factors. Raises
    [Invalid_argument] unless 1 ≤ k ≤ 20. *)

val fractional_factorial : base:int -> generators:int list list -> t
(** 2^{k−p} design: [base] factors get a full factorial; each generator
    (a list of base-factor indices, 0-based) defines one additional
    factor as the product of those columns. Raises [Invalid_argument]
    on an index outside [0, base). *)

val resolution_iii_7 : unit -> t
(** The paper's Figure 3: seven factors in eight runs (2^{7−4}_III), with
    generators x₄ = x₁x₂, x₅ = x₁x₃, x₆ = x₂x₃, x₇ = x₁x₂x₃ — matching
    the printed table row for row. *)

val resolution_v_5 : unit -> t
(** 2^{5−1}_V: five factors in 16 runs, x₅ = x₁x₂x₃x₄ — estimates main
    and two-factor effects when third-order effects vanish. *)

val central_composite : ?axial:float -> int -> t
(** Central composite design for k factors: the 2^k factorial corners,
    2k axial points at ±[axial] (default the rotatable (2^k)^(1/4)), and
    a centre point — 2^k + 2k + 1 runs, enough to fit a full quadratic
    metamodel (squares included). Raises [Invalid_argument] unless
    1 ≤ k ≤ 12 and [axial] > 0. *)

val fold_over : t -> t
(** Append the sign-reversed runs: lifts a resolution III design to
    resolution IV (main effects clear of two-factor interactions) at
    twice the runs. *)

val latin_hypercube : rng:Mde_prob.Rng.t -> factors:int -> levels:int -> t
(** Randomized LH: each column is an independent random permutation of
    the [levels] centered levels (−(r−1)/2 … (r−1)/2), so every level
    appears exactly once per factor — Figure 5's construction. Raises
    [Invalid_argument] unless [factors] ≥ 1 and [levels] ≥ 2. *)

val nearly_orthogonal_lh :
  rng:Mde_prob.Rng.t -> factors:int -> levels:int -> tries:int -> t
(** Cioppa–Lucas-style search: draw [tries] randomized LHs and keep the
    one with the smallest maximum absolute pairwise column correlation —
    space-filling and near-orthogonal. Raises [Invalid_argument] when
    [tries] < 1. *)

val is_latin : t -> bool
(** Every column a permutation of the same centered level set. *)

val max_abs_correlation : t -> float
(** max over column pairs of |Pearson correlation|; 0 for orthogonal. *)

val column_orthogonal : ?tol:float -> t -> bool

val scale : t -> ranges:(float * float) array -> t
(** Map coded levels linearly into natural parameter ranges (the coded
    min/max of each column hit the range endpoints). Raises
    [Invalid_argument] unless there is one range per factor. *)

val pp : Format.formatter -> t -> unit
(** The Figure 3 / Figure 5 table rendering. *)
