(** Geometric coreset (2+eps, 2, O(1))-approximation for disjoint GCSO
    (Section 3.3, Appendix D; [f = 1]).

    Combines the coreset of Section 2.3 — built with geometric data
    structures (range-tree reporting per rectangle, Gonzalez/Feder-Greene
    per set, BBD-ball pruning of dense regions) — with the MWU solver of
    Section 3.2 run on the coreset at radii [10r] / [20r].

    Guarantee (Theorem 3.3): at most [(2+eps)k] centers, [2z] outlier
    rectangles, cost [O(1) * rho*_{k,z}]. *)

val solve_core :
  ?eps:float -> ?rounds:int -> points:Cso_metric.Point.t array ->
  set_of:int array -> rects:Cso_geom.Rect.t array -> k:int -> z:int ->
  float -> (int list * int list) option
(** [solve_core ... r] — the stage shared with RCTO1 (Section 4.1.1):
    given coreset points tagged with their (disjoint) owning set, prune dense 15r-balls, then
    run the MWU solver on the survivors. Returns [(centers, outlier
    sets)] — center indices into [points], set ids indexing [rects] —
    or [None] when the radius guess is certifiably too small.
    Requires [set_of.(i)] to be the unique rectangle containing
    [points.(i)]. *)

type report = {
  solution : Instance.solution;
  radius : float;
  coreset_points : int; (* points handed to the MWU stage *)
  forced_outliers : int; (* |H_0|: sets uncoverable by k balls of 2r *)
}

val solve : ?eps:float -> ?rounds:int -> Geo_instance.t -> report
(** Full algorithm with binary search over the radius grid at [eps].
    Raises [Invalid_argument] if the instance has frequency > 1. *)
