(** Certified radius guesses for the outer binary searches of
    Sections 3.2/3.3, substituted for the WSPD candidate lattice (DESIGN.md
    substitution 6).

    Centers are input points, so the optimum radius is [0] or a
    pairwise distance, hence [0] or a value in [[lo, hi]] with [lo] the
    closest positive pair distance and [hi] the bounding-box diagonal
    ([>=] the diameter). The geometric grid [lo (1+eps)^i] over that
    bracket holds, for every pairwise distance [delta > 0], a guess in
    [[delta, (1+eps) delta]] — exactly what a binary search for the
    smallest feasible radius needs to lose at most a [(1+eps)] factor —
    with [O(log_{1+eps}(hi/lo))] guesses instead of the WSPD's
    [O(s^d n)] candidates. Euclidean distances throughout, as
    {!Cso_metric.Points.l2_idx}. *)

val bracket : Cso_metric.Points.t -> (float * float) option
(** [(lo, hi)]: the exact smallest positive pairwise distance and the
    bounding-box diagonal; [None] when the store has fewer than two
    distinct points. [lo] is found by a plane sweep over the
    de-duplicated points along the axis of largest spread, with the
    live window ordered by a second axis: deterministic, every distance
    counted in [metric.dist_evals], [O(n log n)] in the plane and on
    non-adversarial inputs in higher dimensions. *)

val make : eps:float -> Cso_metric.Points.t -> float array
(** Ascending guesses [0 :: lo, lo (1+eps), ..., lo (1+eps)^m] where
    the last value is the first one [>= hi]; just [[| 0. |]] when all
    points coincide. Each step is one float multiplication by
    [1. +. eps], so every positive pairwise distance [delta] has a guess
    [g] with [delta <= g <= (1. +. eps) *. delta] in float arithmetic.
    Raises [Invalid_argument] unless [eps > 0] and [1. +. eps > 1.], and
    when [ceil (log_{1+eps}(hi/lo)) + 2] exceeds {!max_length}, so a
    tiny [eps] is refused rather than allocating without limit. *)

val max_length : int
(** [1_000_000]: the longest grid {!make} builds (8 MB of guesses). *)
