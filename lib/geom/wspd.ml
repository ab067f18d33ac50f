module Point = Cso_metric.Point
module Points = Cso_metric.Points
module Obs = Cso_obs.Obs

(* Pairs emitted and split-tree recursion steps: the decomposition's
   O(s^d n) pair bound shows up as near-linear growth of both. *)
let c_pairs = Obs.counter "geom.wspd.pairs"
let c_find = Obs.counter "geom.wspd.find_calls"

(* Distribution of achieved separation ratios (center distance over the
   larger radius) across emitted pairs. Every emitted pair must clear
   the requested [s]; the histogram shows how much slack the fair-split
   tree actually leaves. Leaf-leaf fallback pairs have radius 0 on both
   sides and land in the top bucket (ratio = infinity). *)
let h_sep = Obs.Hist.hist "geom.wspd.pair_sep_ratio"

type node = {
  repr : int; (* a point index inside the node *)
  center : Point.t;
  radius : float; (* half-diagonal of the tight bounding box *)
  left : node option;
  right : node option;
}

let node_of_box coords idx lo hi =
  let box = Rect.bounding_box_idx coords idx ~lo ~hi in
  let center =
    Array.init (Rect.dim box) (fun j -> (box.Rect.lo.(j) +. box.Rect.hi.(j)) /. 2.0)
  in
  let radius = Point.l2 center box.Rect.lo in
  (center, radius)

(* Fair-split tree: split the widest dimension of the bounding box at the
   median point. Identical-coordinate inputs still split by index count.
   Coordinates come from the packed store; node centers stay boxed (they
   are fresh synthesized points, not members of the input set). *)
let build_tree_packed coords =
  let n = Points.length coords in
  let idx = Array.init n (fun i -> i) in
  let widest lo hi =
    let d = Points.dim coords in
    let best = ref 0 and best_w = ref neg_infinity in
    for j = 0 to d - 1 do
      let mn = ref infinity and mx = ref neg_infinity in
      for i = lo to hi - 1 do
        let x = Points.coord coords idx.(i) j in
        if x < !mn then mn := x;
        if x > !mx then mx := x
      done;
      if !mx -. !mn > !best_w then begin
        best_w := !mx -. !mn;
        best := j
      end
    done;
    !best
  in
  let rec go lo hi =
    let center, radius = node_of_box coords idx lo hi in
    if hi - lo = 1 then
      { repr = idx.(lo); center; radius; left = None; right = None }
    else begin
      let j = widest lo hi in
      let sub = Array.sub idx lo (hi - lo) in
      Array.sort
        (fun a b ->
          Float.compare (Points.coord coords a j) (Points.coord coords b j))
        sub;
      Array.blit sub 0 idx lo (hi - lo);
      let mid = lo + ((hi - lo) / 2) in
      let l = go lo mid in
      let r = go mid hi in
      { repr = idx.(lo); center; radius; left = Some l; right = Some r }
    end
  in
  if n = 0 then None else Some (go 0 n)

let build_tree pts = build_tree_packed (Points.of_array pts)

(* Core recursion over the split tree, shared by [pairs] and
   [pairs_info]; [emit u v] receives each well-separated node pair. *)
let iter_pairs ~s root emit =
  let well_separated u v =
    let gap = Point.l2 u.center v.center -. u.radius -. v.radius in
    gap >= s *. max u.radius v.radius
  in
  let emit u v =
    Obs.incr c_pairs;
    if Obs.enabled () then begin
      let rmax = max u.radius v.radius in
      let ratio =
        if rmax > 0.0 then Point.l2 u.center v.center /. rmax else infinity
      in
      Obs.Hist.observe_float h_sep ratio
    end;
    emit u v
  in
  let rec find u v =
    Obs.incr c_find;
    if well_separated u v then emit u v
    else if u.radius >= v.radius then
      match (u.left, u.right) with
      | Some l, Some r ->
          find l v;
          find r v
      | _ ->
          (* u is a leaf: v cannot also be a leaf here unless the two
             points coincide; then split v instead. *)
          (match (v.left, v.right) with
          | Some l, Some r ->
              find u l;
              find u r
          | _ -> emit u v)
    else
      match (v.left, v.right) with
      | Some l, Some r ->
          find u l;
          find u r
      | _ -> (
          match (u.left, u.right) with
          | Some l, Some r ->
              find l v;
              find r v
          | _ -> emit u v)
  in
  let rec walk u =
    match (u.left, u.right) with
    | Some l, Some r ->
        find l r;
        walk l;
        walk r
    | _ -> ()
  in
  walk root

let separation ?(eps = 0.25) () =
  (* Separation 4/eps: representative distances then approximate every
     cross pair within (1 +- eps). *)
  max (4.0 /. eps) 1.0

let pairs ?(eps = 0.25) pts =
  let s = separation ~eps () in
  let acc = ref [] in
  (match build_tree pts with
  | None -> ()
  | Some root -> iter_pairs ~s root (fun u v -> acc := (u.repr, v.repr) :: !acc));
  !acc

type pair_info = {
  pi_a : int;
  pi_b : int;
  pi_ra : float;
  pi_rb : float;
  pi_center_dist : float;
  pi_pts_a : int list;
  pi_pts_b : int list;
}

let rec points_of u acc =
  match (u.left, u.right) with
  | Some l, Some r -> points_of l (points_of r acc)
  | _ -> u.repr :: acc

let pairs_info ?(eps = 0.25) pts =
  let s = separation ~eps () in
  let acc = ref [] in
  (match build_tree pts with
  | None -> ()
  | Some root ->
      iter_pairs ~s root (fun u v ->
          acc :=
            { pi_a = u.repr; pi_b = v.repr; pi_ra = u.radius; pi_rb = v.radius;
              pi_center_dist = Point.l2 u.center v.center;
              pi_pts_a = points_of u []; pi_pts_b = points_of v [] }
            :: !acc));
  !acc

(* Representative distances are read straight off the packed store
   ([Points.l2_idx] is bit-identical to [Point.l2], same counter
   events). *)
let candidate_distances_packed ?(eps = 0.25) coords =
  let s = separation ~eps () in
  let ps = ref [] in
  (match build_tree_packed coords with
  | None -> ()
  | Some root ->
      iter_pairs ~s root (fun u v -> ps := (u.repr, v.repr) :: !ps));
  let ds = List.map (fun (a, b) -> Points.l2_idx coords a b) !ps in
  let arr = Array.of_list (0.0 :: ds) in
  (* Monomorphic float sort; same total order as the polymorphic one. *)
  Array.sort Float.compare arr;
  let out = ref [] in
  Array.iter
    (fun d -> match !out with x :: _ when x = d -> () | _ -> out := d :: !out)
    arr;
  Array.of_list (List.rev !out)
