(** The differential / metamorphic check registry.

    One {!Fuzz.t} per (fast implementation, oracle-or-invariant) pair,
    grouped by substrate prefix:

    - [metric.*] — {!Cso_metric.Space} ball / pairwise / cached vs scans;
    - [geom.*] — BBD sandwich guarantee, batched queries, power-of-two
      scale invariance, range-tree reporting vs scans;
    - [kcenter.*] — Gonzalez 2-approximation and scale invariance,
      Charikar 3-approximation with outliers, vs exhaustive optima;
    - [lp.*] — flat simplex vs reference tableau, feasibility of optima,
      MWU vs simplex feasibility agreement;
    - [setcover.*] — greedy and exact vs brute force;
    - [cso.*] / [gcso.*] — exact solver, LP tri-criteria and MWU
      tri-criteria guarantees vs the exhaustive [rho*]; outlier-budget
      monotonicity; radius-grid coverage of every pairwise distance;
    - [relational.*] — Yannakakis count / enumerate / any / sample,
      semijoin reduction and hypertree decomposition vs the nested-loop
      join. *)

val all : Fuzz.t list
(** Every registered check, in substrate order. *)

val names : string list

val radius_grid_prop :
  Cso_metric.Point.t array * float -> (unit, string) result
(** The [gcso.radius_grid_covers_pairs] property on one point set and
    grid accuracy [eps], for fixture tests. *)
