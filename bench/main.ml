(* Benchmark harness driver.

   Usage:
     dune exec bench/main.exe               # run everything
     dune exec bench/main.exe -- table1     # only the Table-1 rows
     dune exec bench/main.exe -- scaling fig ablation micro
     dune exec bench/main.exe -- table1_rcro fig_epsilon_sweep  # by name
*)

let matches filters name =
  filters = []
  || List.exists
       (fun f -> f = name || String.length f < String.length name
                 && String.sub name 0 (String.length f) = f)
       filters

let () =
  (* lib/obs defaults to the dependency-free Sys.time clock; the bench
     binary links Unix anyway, so give spans real wall-clock. *)
  Cso_obs.Obs.set_clock Unix.gettimeofday;
  let filters = List.tl (Array.to_list Sys.argv) in
  let with_micro = matches filters "micro" in
  Printf.printf
    "Clustering with Set Outliers (PODS 2025) -- benchmark harness\n";
  Printf.printf
    "Each experiment regenerates one artifact of the paper; see DESIGN.md \
     section 3 and EXPERIMENTS.md.\n";
  (* A failing gate raises; every selected experiment still runs, and
     the failures are all reported (and the exit code set) at the end. *)
  let failures =
    List.filter_map
      (fun (name, fn) ->
        if not (matches filters name) then None
        else
          match Util.time fn with
          | (), t ->
              Printf.printf "[%s finished in %s]\n%!" name (Util.fmt_time t);
              None
          | exception e ->
              let msg = Printexc.to_string e in
              Printf.printf "[%s FAILED: %s]\n%!" name msg;
              Some (name, msg))
      Experiments.all
  in
  if with_micro || filters = [] then Micro.run ();
  if Util.(!t1_rows) <> [] then Util.print_t1_summary ();
  if failures <> [] then begin
    Printf.printf "%d experiment(s) failed:\n" (List.length failures);
    List.iter (fun (name, msg) -> Printf.printf "  %s: %s\n" name msg) failures;
    exit 1
  end
