(** Well-Separated Pair Decomposition (Section 3.1, [15, 46]).

    Built over a fair-split tree. Its role in the paper is to produce a
    small set of {e candidate distances} [Gamma] such that every pairwise
    distance of [P] is approximated within a [(1 +- eps)] factor by some
    candidate, for the binary searches of Sections 3.2/3.3. Those run
    over {!Radius_grid} instead (DESIGN.md substitution 6); this module
    stays as the tested §3.1 substrate and the ablation baseline. *)

val pairs : ?eps:float -> Cso_metric.Point.t array -> (int * int) list
(** [pairs ~eps pts] returns representative point-index pairs, one per
    well-separated pair of the decomposition with separation [2/eps].
    For every [p <> q] there is a pair [(a, b)] with
    [|dist a b - dist p q| <= eps *. dist p q]. *)

type pair_info = {
  pi_a : int;  (** representative point index of side A *)
  pi_b : int;  (** representative point index of side B *)
  pi_ra : float;  (** enclosing-ball radius of side A *)
  pi_rb : float;  (** enclosing-ball radius of side B *)
  pi_center_dist : float;  (** distance between the two ball centers *)
  pi_pts_a : int list;  (** all point indices under side A *)
  pi_pts_b : int list;  (** all point indices under side B *)
}
(** One well-separated pair with enough geometry to re-check the
    separation invariant externally:
    [pi_center_dist - pi_ra - pi_rb >= s * max pi_ra pi_rb] with
    [s = max (4/eps) 1]. *)

val pairs_info : ?eps:float -> Cso_metric.Point.t array -> pair_info list
(** Same decomposition as [pairs], but each pair carries its node radii,
    center distance, and full point sets — the data needed to verify
    well-separatedness and exact pair coverage in tests. *)

val candidate_distances_packed : ?eps:float -> Cso_metric.Points.t ->
  float array
(** Sorted, deduplicated candidate distances (0. included): the array
    [Gamma] of Algorithm 1, over a packed store. For every pairwise
    distance [delta] of the input there is a candidate in
    [[(1-eps) delta, (1+eps) delta]]. *)
