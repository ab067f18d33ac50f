module Points = Cso_metric.Points

module By_key = Set.Make (struct
  type t = float * int

  let compare (u, i) (v, j) =
    let c = Float.compare u v in
    if c <> 0 then c else Int.compare i j
end)

(* Exact closest positive pair (Hinrichs-Nievergelt-Schorn plane
   sweep). Points are sorted by the axis of largest spread [a], ties
   lexicographically, so exact duplicates are adjacent and only the
   first of each run is swept. The sweep along [a] keeps the points
   within [best] behind it in a set ordered by the second-widest axis
   [b], and compares each new point only with those within [best] on
   [b]. In the plane at most a constant number of such points can be
   pairwise [best] apart, so the sweep is O(n log n); a window along [a]
   alone would be quadratic on inputs whose points share an
   [a]-coordinate. *)
let closest_pair coords ~spread =
  let n = Points.length coords and d = Points.dim coords in
  let widest ~skip =
    let best = ref (-1) in
    for j = 0 to d - 1 do
      if j <> skip && (!best < 0 || spread.(j) > spread.(!best)) then best := j
    done;
    !best
  in
  let a = widest ~skip:(-1) in
  let b = if d = 1 then a else widest ~skip:a in
  let x i = Points.coord coords i a and y i = Points.coord coords i b in
  let order i j =
    let rec lex k =
      if k = d then 0
      else
        let c =
          Float.compare (Points.coord coords i k) (Points.coord coords j k)
        in
        if c <> 0 then c else lex (k + 1)
    in
    let c = Float.compare (x i) (x j) in
    if c <> 0 then c else lex 0
  in
  let idx = Array.init n Fun.id in
  Array.sort order idx;
  let best = ref infinity and live = ref By_key.empty in
  let tail = ref 0 and prev = ref (-1) in
  Array.iter
    (fun p ->
      if !prev < 0 || order p !prev <> 0 then begin
        while x p -. x idx.(!tail) > !best do
          live := By_key.remove (y idx.(!tail), idx.(!tail)) !live;
          incr tail
        done;
        let rec scan s =
          match s () with
          | Seq.Cons ((yq, q), rest) when yq <= y p +. !best ->
              let dq = Points.l2_idx coords p q in
              if dq > 0.0 && dq < !best then best := dq;
              scan rest
          | _ -> ()
        in
        scan (By_key.to_seq_from (y p -. !best, min_int) !live);
        live := By_key.add (y p, p) !live
      end;
      prev := p)
    idx;
  !best

let bracket coords =
  let n = Points.length coords in
  if n < 2 then None
  else
    let box = Rect.bounding_box_idx coords (Array.init n Fun.id) ~lo:0 ~hi:n in
    let spread = Array.mapi (fun j h -> h -. box.Rect.lo.(j)) box.Rect.hi in
    let closest = closest_pair coords ~spread in
    if closest = infinity then None
    else
      let diag = Array.fold_left (fun s w -> s +. (w *. w)) 0.0 spread in
      Some (closest, Float.sqrt diag)

(* Longest grid [make] builds: 8 MB of guesses. *)
let max_length = 1_000_000

let make ~eps coords =
  if not (eps > 0.0 && 1.0 +. eps > 1.0) then
    invalid_arg "Radius_grid.make: eps must be > 0 and 1 + eps > 1";
  match bracket coords with
  | None -> [| 0.0 |]
  | Some (lo, hi) ->
      let steps = Float.ceil (Float.log (hi /. lo) /. Float.log1p eps) in
      if not (steps +. 2.0 <= float_of_int max_length) then
        invalid_arg
          (Printf.sprintf
             "Radius_grid.make: eps %g needs more than %d guesses for a \
              diameter/closest-pair ratio of %g"
             eps max_length (hi /. lo));
      let step = 1.0 +. eps in
      let rec up g acc =
        if g >= hi then List.rev (g :: acc) else up (g *. step) (g :: acc)
      in
      Array.of_list (0.0 :: up lo [])
