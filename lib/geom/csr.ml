(* Compressed-sparse-row view of an [int list array].

   The GCSO oracle walks per-constraint canonical-node lists thousands
   of times (every MWU round re-reads every list); as boxed lists those
   walks chase a pointer per element. Flattening once into two int
   arrays turns every later sweep into contiguous array reads. Row
   order and within-row element order are exactly the source list
   order, so a fold over a CSR row produces the same value sequence —
   and therefore the same float accumulation — as [List.fold_left] over
   the original list. *)

type t = {
  offsets : int array;
  ids : int array;
}

let of_lists rows =
  let m = Array.length rows in
  let offsets = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    offsets.(i + 1) <- offsets.(i) + List.length rows.(i)
  done;
  let ids = Array.make offsets.(m) 0 in
  for i = 0 to m - 1 do
    let e = ref offsets.(i) in
    List.iter
      (fun x ->
        ids.(!e) <- x;
        incr e)
      rows.(i)
  done;
  { offsets; ids }
