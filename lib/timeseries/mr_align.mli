(** Massive-scale time alignment on the MapReduce substrate (§2.2).

    Splash parallelizes interpolation by forming windows
    W = ⟨(s_j,d_j),(s_{j+1},d_{j+1})⟩; each window computes the target
    points {tᵢ : s_j ≤ tᵢ < s_{j+1}} independently, and a parallel sort
    assembles the target series. For cubic splines the windows also carry
    the spline constants σ_j, σ_{j+1} (computed by {!Spline.fit} or
    {!Sgd.dsgd}), which is what makes the otherwise global problem
    window-local. *)

type window = {
  index : int;
  s0 : float;
  d0 : float;
  s1 : float;
  d1 : float;
  sigma0 : float;
  sigma1 : float;
}

val windows : ?sigma:float array -> Series.t -> window array
(** Consecutive-knot windows (length m for m+1 observations); σ defaults
    to all zeros (linear interpolation windows). Raises
    [Invalid_argument] on fewer than 2 observations or a σ whose length
    is not the series length. *)

type result = {
  target : Series.t;
  interpolation_stats : Mde_mapred.Job.stats;
  sort_stats : Mde_mapred.Job.stats;
}

val interpolate :
  ?partitions:int ->
  kind:[ `Linear | `Cubic ] ->
  Series.t ->
  target_times:float array ->
  result
(** Distribute the windows over [partitions] (default 8), map each window
    to its interpolated target points, shuffle-sort by time, and return
    the assembled series plus the per-job shuffle accounting. Target
    points outside the knot range are clamped into the boundary windows.
    The result equals the sequential {!Align.align} answer (property
    tested). Raises [Invalid_argument] on fewer than 2 observations. *)
