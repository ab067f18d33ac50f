(* Workload runner of the repository benchmark (see README.md).

     bench.exe WORKLOAD --seed N --seconds S --trace 0|1
               --daemon PATH --workdir DIR [--toy] [--commit ID]

   WORKLOAD is cold_solve, serve_read or serve_mixed. Every input is
   generated here from --seed; csokitd receives only the generated
   requests. Human-readable report lines come first; the last stdout
   line is the JSON result. The exit code is 0 only when every check
   passed. *)

module P = Cso_serve.Protocol
module Registry = Cso_serve.Registry
module Obs = Cso_obs.Obs
module Pool = Cso_parallel.Pool
module Rect = Cso_geom.Rect
module Wspd = Cso_geom.Wspd
module Bbd = Cso_geom.Bbd_tree
module Gcso = Cso_core.Gcso_general
module Inc = Cso_core.Gcso_general.Incremental
module Geo = Cso_core.Geo_instance
module Planted = Cso_workload.Planted

let now = Unix.gettimeofday

exception Check of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check s)) fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least q% of
   the samples at or below it. *)
let pct l q =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let median l = pct l 50.0
let fmax l = List.fold_left Float.max neg_infinity l

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; n : int }

(* Gated metrics: end-to-end ones in untraced runs, per-layer ones in
   traced runs. [report] holds the remaining figures, printed only. *)
let e2e : metric list ref = ref []
let layers : metric list ref = ref []
let report : metric list ref = ref []
let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let put r name unit_ n value = r := { name; value; unit_; n } :: !r
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let count_op ok =
  incr attempted;
  if not ok then incr failed

(* ------------------------------------------------------------------ *)
(* Benchmark-side spans                                                *)
(* ------------------------------------------------------------------ *)

(* Spans wrap the benchmark's calls into each layer's public functions.
   Each records its name, start, end, parent span and request id; they
   stay in memory and are written out when the run ends. [cost] is the
   time spent inside the recorder itself. *)
module Spans = struct
  type t = {
    id : int;
    name : string;
    parent : int;
    req : int;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let recorded : t list ref = ref []
  let stack : int list ref = ref []
  let next = ref 0
  let cost = ref 0.0

  let fresh () =
    let id = !next in
    incr next;
    id

  let current () = match !stack with p :: _ -> p | [] -> -1

  let add ~parent ~req name t0 t1 =
    if !on then recorded := { id = fresh (); name; parent; req; t0; t1 } :: !recorded

  let with_ name f =
    if not !on then f ()
    else begin
      let c0 = now () in
      let id = fresh () and parent = current () in
      stack := id :: !stack;
      let t0 = now () in
      cost := !cost +. (t0 -. c0);
      let finish () =
        let t1 = now () in
        stack := List.tl !stack;
        recorded := { id; name; parent; req = -1; t0; t1 } :: !recorded;
        cost := !cost +. (now () -. t1)
      in
      Fun.protect ~finally:finish f
    end

  (* Self time: a span's duration minus the part of its interval that
     its children cover (children of one request-loop phase overlap, so
     their union is taken). *)
  let self_table () =
    let kids = Hashtbl.create 256 in
    List.iter
      (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.t0, s.t1))
      !recorded;
    let covered s =
      let iv =
        Hashtbl.find_all kids s.id
        |> List.map (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      fst
        (List.fold_left
           (fun (acc, hi) (a, b) ->
             if a >= hi then (acc +. (b -. a), b)
             else if b > hi then (acc +. (b -. hi), b)
             else (acc, hi))
           (0.0, neg_infinity) iv)
    in
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let d = s.t1 -. s.t0 in
        let calls, tot, self =
          Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0)
        in
        Hashtbl.replace tbl s.name (calls + 1, tot +. d, self +. (d -. covered s)))
      !recorded;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"req\":%d,\"start\":%.6f,\"end\":%.6f}\n"
          s.id s.name s.parent s.req s.t0 s.t1)
      (List.rev !recorded);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Scale                                                               *)
(* ------------------------------------------------------------------ *)

type scale = {
  setups : int;  (** cold_solve batch builds timed before the first solve *)
  serve_setups : int;  (** daemon boots per serve run (each solves atlas) *)
  cold_n : int;
  cold_batch : int;
  cold_min_solves : int;
  atlas_n : int;
  feed_live : int;
  ref_qps : float;
  ladder : float list;
  mixed_qps : float;
  resolves : int;  (** re-solves aimed for per serve_mixed run *)
  warmup_s : float;
  probe_s : float;  (** cold_solve traced run: read probe length *)
}

let full =
  {
    setups = 25;
    serve_setups = 2;
    cold_n = 2048;
    cold_batch = 4;
    cold_min_solves = 3;
    atlas_n = 2048;
    feed_live = 256;
    ref_qps = 100.0;
    ladder = [ 150.0; 250.0; 400.0; 600.0 ];
    mixed_qps = 60.0;
    resolves = 20;
    warmup_s = 1.0;
    probe_s = 3.0;
  }

let toy =
  {
    setups = 2;
    serve_setups = 2;
    cold_n = 256;
    cold_batch = 2;
    cold_min_solves = 2;
    atlas_n = 256;
    feed_live = 48;
    ref_qps = 50.0;
    ladder = [ 100.0; 200.0 ];
    mixed_qps = 40.0;
    resolves = 4;
    warmup_s = 0.2;
    probe_s = 2.0;
  }

(* Solver settings. The MWU round cap is always passed: the default
   round count at eps/5 makes a single solve take minutes. *)
let rounds = 40
let cold_eps = 0.3
let serve_eps = 0.5

(* Validity of the open loop: a run whose generator sends later than
   this behind its schedule did not apply the offered load. *)
let late_p99_limit_s = 0.025
let late_max_limit_s = 0.25

(* slo_qps: highest ladder rate meeting this read p99 with no backlog
   left growing at the end of the phase. *)
let slo_p99_ms = 250.0

(* ------------------------------------------------------------------ *)
(* Host                                                                *)
(* ------------------------------------------------------------------ *)

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
            else go ()
      in
      let v = go () in
      close_in ic;
      v

(* CPU seconds (user + system, all threads) another process has used so
   far, from /proc/PID/stat fields 14 and 15, in USER_HZ = 100 ticks. *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let l = input_line ic in
  close_in ic;
  (* Fields after the parenthesised command name, from field 3 on. *)
  let from = String.rindex l ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub l from (String.length l - from))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* fig_serve's tiling: 4x4 cells over [0,100]^2, so every point lies in
   some rectangle and no single discarded set empties the population. *)
let tiling () =
  Array.init 16 (fun i ->
      let x = float_of_int (i mod 4) *. 25.0 and y = float_of_int (i / 4) *. 25.0 in
      Rect.make ~lo:[| x; y |] ~hi:[| x +. 25.0; y +. 25.0 |])

let uniform rng = [| Random.State.float rng 100.0; Random.State.float rng 100.0 |]

type spec = {
  iname : string;
  points : float array array;
  rects : Rect.t array;
  k : int;
  z : int;
  eps : float;
  ball_r : float;  (** radius of the [ball] reads *)
  all_r : float;  (** radius of the [balls_all] reads *)
}

let is_error_reply = function P.Error _ | P.Overloaded -> true | _ -> false

(* A reply's verdict: [Shed] is an Overloaded reply, the daemon refusing
   load past [max_inflight] as designed. *)
type status = Good | Shed | Bad

let load_req s =
  P.Load
    {
      name = s.iname;
      points = s.points;
      rects = s.rects;
      k = s.k;
      z = s.z;
      eps = s.eps;
      rounds = Some rounds;
      drift = 2.0;
    }

let geo_of s = Geo.make ~points:s.points ~rects:s.rects ~k:s.k ~z:s.z

let atlas_spec sc seed =
  let rng = Random.State.make [| seed; 0xa71a5 |] in
  {
    iname = "atlas";
    points = Array.init sc.atlas_n (fun _ -> uniform rng);
    rects = tiling ();
    k = 4;
    z = 1;
    eps = serve_eps;
    ball_r = 10.0;
    all_r = 8.0;
  }

let feed_spec sc seed =
  let rng = Random.State.make [| seed; 0xfeed |] in
  {
    iname = "feed";
    points = Array.init sc.feed_live (fun _ -> uniform rng);
    rects = tiling ();
    k = 4;
    z = 1;
    eps = serve_eps;
    ball_r = 10.0;
    all_r = 8.0;
  }

(* ------------------------------------------------------------------ *)
(* Per-solve layer figures (traced runs)                               *)
(* ------------------------------------------------------------------ *)

let solve_counters =
  [
    "cso.gcso.guesses";
    "lp.mwu.rounds";
    "cso.gcso.oracle_calls";
    "metric.dist_evals";
    "geom.bbd.nodes_visited";
    "geom.bbd.ball_queries";
    "geom.rtree.nodes_visited";
    "geom.wspd.pairs";
  ]

let per_solve : (string * float) list list ref = ref []
let snapshot_cost = ref 0.0

let span_secs suffix =
  List.fold_left
    (fun acc (path, _, secs) ->
      let ls = String.length suffix and lp = String.length path in
      if lp >= ls && String.sub path (lp - ls) ls = suffix then acc +. secs
      else acc)
    0.0 (Obs.span_stats ())

(* Run one uncached solve and, when traced, keep its counter deltas, its
   MWU and solver self time (from the library's own spans) and its GC
   deltas. *)
let observe_solve name f =
  if not !Spans.on then f ()
  else begin
    let c0 = now () in
    let mwu0 = span_secs "mwu.run" and sol0 = span_secs "gcso.solve" in
    let g0 = Gc.quick_stat () in
    let c1 = now () in
    let r, delta = Obs.with_delta (fun () -> Spans.with_ name f) in
    let c2 = now () in
    let g1 = Gc.quick_stat () in
    let mwu = span_secs "mwu.run" -. mwu0 and sol = span_secs "gcso.solve" -. sol0 in
    let cnt k = float_of_int (Option.value (List.assoc_opt k delta) ~default:0) in
    per_solve :=
      (("lp.mwu.run_s", mwu) :: ("cso.gcso.solve_self_s", sol -. mwu)
       :: ("gc.minor", float_of_int (g1.minor_collections - g0.minor_collections))
       :: ("gc.major", float_of_int (g1.major_collections - g0.major_collections))
       :: ("gc.promoted_mb", (g1.promoted_words -. g0.promoted_words) *. 8.0 /. 1e6)
       :: List.map (fun k -> (k, cnt k)) solve_counters)
      :: !per_solve;
    snapshot_cost := !snapshot_cost +. (c1 -. c0) +. (now () -. c2);
    r
  end

let emit_per_solve () =
  let n = List.length !per_solve in
  let col k = List.map (fun row -> List.assoc k row) !per_solve in
  List.iter
    (fun (k, unit_) -> put layers k unit_ n (median (col k)))
    ([ ("lp.mwu.run_s", "s"); ("cso.gcso.solve_self_s", "s") ]
    @ List.map (fun k -> (k, "count")) solve_counters
    @ [ ("gc.minor", "count"); ("gc.major", "count"); ("gc.promoted_mb", "MB") ])

(* Direct calls into the geometric layers on a workload's instance. *)
let direct_probes ~solve_geo ~eps ~ball_points ~radius =
  let eps_c = eps /. 5.0 in
  let eps_w = eps_c /. (2.0 +. eps_c) in
  let t0 = now () in
  let gamma =
    Spans.with_ "geom.wspd.candidate_distances_packed" (fun () ->
        Wspd.candidate_distances_packed ~eps:eps_w solve_geo.Geo.coords)
  in
  let t1 = now () in
  ignore (Spans.with_ "cso.gcso.prepare" (fun () -> Gcso.prepare solve_geo));
  let t2 = now () in
  let pts = Cso_metric.Points.of_array ball_points in
  let tree = Spans.with_ "geom.bbd.build_packed" (fun () -> Bbd.build_packed pts) in
  let t3 = now () in
  ignore (Spans.with_ "geom.bbd.balls_all" (fun () -> Bbd.balls_all tree ~radius ~eps:0.1));
  let t4 = now () in
  put layers "geom.wspd.lattice_s" "s" 1 (t1 -. t0);
  put layers "cso.gcso.prepare_s" "s" 1 (t2 -. t1);
  put layers "geom.bbd.balls_all_ms" "ms" 1 ((t4 -. t3) *. 1e3);
  put report "geom.wspd.candidates" "count" 1 (float_of_int (Array.length gamma))

(* ------------------------------------------------------------------ *)
(* cold_solve                                                          *)
(* ------------------------------------------------------------------ *)

let cold_batch sc seed =
  Array.init sc.cold_batch (fun i ->
      Spans.with_ "workload.planted.gcso_overlapping" (fun () ->
          Planted.gcso_overlapping ~d:2
            (Random.State.make [| seed; i; 0xc01d |])
            ~n:sc.cold_n ~k:4 ~z:2))

(* ------------------------------------------------------------------ *)
(* csokitd harness                                                     *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string; mutable live : bool }

let daemons : daemon list ref = ref []
let boots = ref 0

let reap d =
  if d.live then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    d.live <- false
  end;
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

let reap_all () = List.iter reap !daemons

let spawn_daemon ~exe ~workdir =
  incr boots;
  let sock = Printf.sprintf "%s/d%d-%d.sock" workdir (Unix.getpid ()) !boots in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile
      (Printf.sprintf "%s/d%d-%d.log" workdir (Unix.getpid ()) !boots)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; sock; "--mode"; "binary" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let d = { pid; sock; live = true } in
  daemons := d :: !daemons;
  d

let exited d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _ ->
      d.live <- false;
      true
  | exception Unix.Unix_error _ -> true

type conn = { fd : Unix.file_descr; rd : P.reader; q : int Queue.t }

(* A fresh socket per boot; readiness is a connect that succeeds. *)
let connect d =
  let deadline = now () +. 20.0 in
  let rec go () =
    if exited d then fail "csokitd exited during start-up";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> { fd; rd = P.reader P.Binary; q = Queue.create () }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      ->
        Unix.close fd;
        if now () > deadline then fail "csokitd did not accept connections in 20 s";
        Unix.sleepf 0.01;
        go ()
  in
  go ()

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let buf = Bytes.create (1 lsl 18)

let read_frames c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> fail "csokitd closed a connection"
  | n ->
      List.map
        (function
          | `Frame p -> p | `Oversized _ -> fail "oversized reply from csokitd")
        (P.feed c.rd buf n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Blocking round trip, used only while nothing else is in flight. *)
let rpc c req =
  write_all c.fd (P.encode_request P.Binary req) 0;
  let rec wait () = match read_frames c with [] -> wait () | [ p ] -> p | _ -> fail "unexpected reply" in
  let p = wait () in
  match P.decode_response P.Binary p with
  | Ok r -> (p, r)
  | Error e -> fail "undecodable reply: %s" e

(* Ask the daemon to stop; it is killed anyway if it does not exit. *)
let shutdown d c =
  (try ignore (rpc c P.Shutdown) with Check _ | Unix.Unix_error _ -> ());
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  while (not (exited d)) && now () < deadline do
    Unix.sleepf 0.01
  done;
  reap d

(* ------------------------------------------------------------------ *)
(* Open-loop request stream                                            *)
(* ------------------------------------------------------------------ *)

type cls = Read | Write | Cached | Resolve | Poll

type op = {
  at : float;  (** scheduled send, seconds after the phase start *)
  conn : int;
  inst : string;
  cls : cls;
  req : P.request;
  frame : string;
}

type phase = {
  label : string;
  rate : float;
  gated : bool;
      (** a late generator or shed load fails the run; otherwise it only
          disqualifies the phase from [slo_qps] *)
  ops : op array;
  sent : float array;
  recv : float array;
  digest : string array;
  status : status array;
  polls : (int, string) Hashtbl.t;  (** raw poll replies by op index *)
  mutable start : float;
  mutable backlog_end : int;
  mutable late : bool;
  mutable shed : int;  (** Overloaded replies *)
}

(* Codec time (traced runs): total seconds and calls. Single calls are
   too short for the clock, so means are reported. *)
let encode_time = ref 0.0
let encodes = ref 0
let decode_time = ref 0.0
let decodes = ref 0

let mk_op ~at ~conn ~inst ~cls req =
  { at; conn; inst; cls; req; frame = P.encode_request P.Binary req }

(* Re-encode a phase's whole request stream in one timed pass. *)
let time_encode ops =
  let t0 = now () in
  Array.iter (fun op -> ignore (Spans.with_ "serve.protocol.encode_request" (fun () -> P.encode_request P.Binary op.req))) ops;
  encode_time := !encode_time +. (now () -. t0);
  encodes := !encodes + Array.length ops

(* Reply status by payload digest: untraced runs decode each distinct
   payload once, so that decoding large identical replies (balls_all,
   assign) does not hold up the generator. *)
let decoded : (string, status) Hashtbl.t = Hashtbl.create 4096

let reply_status payload digest =
  let decode () =
    let t0 = now () in
    let r = P.decode_response P.Binary payload in
    decode_time := !decode_time +. (now () -. t0);
    incr decodes;
    match r with
    | Ok P.Overloaded -> Shed
    | Ok r -> if is_error_reply r then Bad else Good
    | Error _ -> Bad
  in
  if !Spans.on then decode ()
  else
    match Hashtbl.find_opt decoded digest with
    | Some st -> st
    | None ->
        let st = decode () in
        Hashtbl.replace decoded digest st;
        st

let mk_phase ?(gated = true) label rate ops =
  let n = Array.length ops in
  {
    label;
    rate;
    gated;
    ops;
    sent = Array.make n nan;
    recv = Array.make n nan;
    digest = Array.make n "";
    status = Array.make n Bad;
    polls = Hashtbl.create 16;
    start = nan;
    backlog_end = 0;
    late = false;
    shed = 0;
  }

(* Poisson arrivals at [rate] over [secs] seconds. *)
let arrivals rng ~rate ~secs =
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float rng 1.0) /. rate) in
    if t >= secs then List.rev acc else go t (t :: acc)
  in
  go 0.0 []

(* The read mix on atlas: 75% ball, 10% assign, 10% cached solve, 5%
   balls_all, dealt from shuffled decks of 20 so that every run gets the
   exact mix and every kind appears in every 20 reads. *)
let read_reqs rng (atlas : spec) =
  let deck = Array.init 20 (fun i -> if i < 15 then 0 else if i < 17 then 1 else if i < 19 then 2 else 3) in
  let pos = ref 20 in
  fun () ->
    if !pos = 20 then begin
      for i = 19 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = deck.(i) in
        deck.(i) <- deck.(j);
        deck.(j) <- t
      done;
      pos := 0
    end;
    let card = deck.(!pos) in
    incr pos;
    match card with
    | 0 ->
        let p = atlas.points.(Random.State.int rng (Array.length atlas.points)) in
        P.Query_ball { name = atlas.iname; center = p; radius = atlas.ball_r; eps = 0.1 }
    | 1 -> P.Assign atlas.iname
    | 2 -> P.Solve atlas.iname
    | _ -> P.Balls_all { name = atlas.iname; radius = atlas.all_r; eps = 0.1 }

let read_ops rng atlas ~rate ~secs ~conns =
  let next = read_reqs rng atlas in
  arrivals rng ~rate ~secs
  |> List.map (fun at ->
         mk_op ~at ~conn:(Random.State.int rng conns) ~inst:atlas.iname ~cls:Read (next ()))

(* feed's write stream: FIFO insert/delete churn around [feed_live]
   points, a cached solve now and then, and every [every] writes an
   insert_rect or delete_rect followed by the solve it forces. External
   ids are dense creation order, so deletes can name ids in advance. *)
let feed_stream rng (feed : spec) ~every =
  let live = Queue.create () in
  Array.iteri (fun i _ -> Queue.push i live) feed.points;
  let next_id = ref (Array.length feed.points) in
  let next_rect = ref (Array.length feed.rects) in
  let extra = ref None in
  let writes = ref 0 in
  let resolve_due = ref false in
  fun () ->
    let name = feed.iname in
    if !resolve_due then begin
      resolve_due := false;
      (Resolve, P.Solve name)
    end
    else if !writes >= every then begin
      writes := 0;
      resolve_due := true;
      match !extra with
      | Some id ->
          extra := None;
          (Write, P.Delete_rect { name; id })
      | None ->
          let x = Random.State.float rng 80.0 and y = Random.State.float rng 80.0 in
          extra := Some !next_rect;
          incr next_rect;
          (Write, P.Insert_rect { name; rect = Rect.make ~lo:[| x; y |] ~hi:[| x +. 20.0; y +. 20.0 |] })
    end
    else if Random.State.float rng 1.0 < 0.1 then (Cached, P.Solve name)
    else begin
      incr writes;
      if Queue.length live > Array.length feed.points then
        (Write, P.Delete { name; id = Queue.pop live })
      else begin
        Queue.push !next_id live;
        incr next_id;
        (Write, P.Insert { name; point = uniform rng })
      end
    end

(* Drive one phase open-loop: send every request at its scheduled time
   whatever the replies do, and time each reply from that schedule. *)
let run_phase ~conns ph =
  let n = Array.length ph.ops in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let by_fd fd =
    let rec find i = if conns.(i).fd = fd then conns.(i) else find (i + 1) in
    find 0
  in
  let t0 = now () +. 0.005 in
  ph.start <- t0;
  let next = ref 0 and outstanding = ref 0 in
  Spans.with_ ("serve.phase." ^ ph.label) @@ fun () ->
  let parent = Spans.current () in
  while !next < n || !outstanding > 0 do
    while !next < n && t0 +. ph.ops.(!next).at <= now () do
      let i = !next in
      let op = ph.ops.(i) in
      if i = n - 1 then ph.backlog_end <- !outstanding;
      ph.sent.(i) <- now ();
      let c = conns.(op.conn) in
      write_all c.fd op.frame 0;
      Queue.push i c.q;
      incr outstanding;
      incr next
    done;
    let timeout =
      if !next < n then Float.max 0.0 (t0 +. ph.ops.(!next).at -. now ()) else 0.05
    in
    let ready =
      match Unix.select fds [] [] timeout with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        let c = by_fd fd in
        let frames = read_frames c in
        let t = now () in
        List.iter
          (fun payload ->
            if Queue.is_empty c.q then fail "reply without a request";
            let i = Queue.pop c.q in
            decr outstanding;
            ph.recv.(i) <- t;
            let op = ph.ops.(i) in
            Spans.add ~parent ~req:i ("serve.request." ^ P.request_kind op.req) (t0 +. op.at) t;
            let digest = Digest.string payload in
            ph.status.(i) <- reply_status payload digest;
            if op.cls = Poll then Hashtbl.replace ph.polls i payload else ph.digest.(i) <- digest)
          frames)
      ready
  done

let lateness ph =
  Array.to_list
    (Array.mapi (fun i s -> s -. (ph.start +. ph.ops.(i).at)) ph.sent)

let latencies ?(keep = fun c -> c = Read) ph =
  let acc = ref [] in
  Array.iteri
    (fun i op ->
      if keep op.cls then acc := ((ph.recv.(i) -. (ph.start +. op.at)) *. 1e3) :: !acc)
    ph.ops;
  !acc

(* Count every non-poll request, fail on bad replies, and check that the
   generator kept its schedule. Shed load on an ungated phase counts
   towards fail_share but only disqualifies the phase from slo_qps. *)
let shed_total = ref 0

let account ph =
  Array.iteri
    (fun i op ->
      if op.cls <> Poll then
        match ph.status.(i) with
        | Good -> count_op true
        | Shed when not ph.gated ->
            incr attempted;
            incr shed_total;
            ph.shed <- ph.shed + 1
        | Shed | Bad ->
            count_op false;
            problem "phase %s: %s request %d got an error or overload reply" ph.label
              (P.request_kind op.req) i)
    ph.ops;
  if not ph.gated then
    put report (Printf.sprintf "shed.%s" ph.label) "requests" (Array.length ph.ops)
      (float_of_int ph.shed);
  let late = lateness ph in
  if late <> [] then begin
    let p99 = pct late 99.0 and mx = fmax late in
    put report (Printf.sprintf "gen_late_ms.p99.%s" ph.label) "ms" (List.length late) (p99 *. 1e3);
    put report (Printf.sprintf "gen_late_ms.max.%s" ph.label) "ms" (List.length late) (mx *. 1e3);
    put report (Printf.sprintf "backlog_end.%s" ph.label) "requests" 1 (float_of_int ph.backlog_end);
    ph.late <- p99 > late_p99_limit_s || mx > late_max_limit_s;
    if ph.late && ph.gated then
      problem "phase %s: generator fell behind its schedule (p99 %.1f ms, max %.1f ms)"
        ph.label (p99 *. 1e3) (mx *. 1e3)
  end

(* ------------------------------------------------------------------ *)
(* Mirror check                                                        *)
(* ------------------------------------------------------------------ *)

let payload_digest r =
  let s = P.encode_response P.Binary r in
  Digest.string (String.sub s 4 (String.length s - 4))

let mirror_exec_us : (string * float) list ref = ref []

(* Replay every request against an in-process registry in per-instance
   order (feed's requests all travel on one connection, so its send
   order is its execution order; atlas is read-only) and byte-compare
   each reply with what the daemon sent. *)
let mirror_check ~setup phases =
  let reg = Registry.create () in
  let handle req =
    let t0 = now () in
    let r = Spans.with_ ("serve.registry.handle." ^ P.request_kind req) (fun () -> Registry.handle reg req) in
    if !Spans.on then mirror_exec_us := (P.request_kind req, (now () -. t0) *. 1e6) :: !mirror_exec_us;
    r
  in
  List.iter
    (fun (req, digest) ->
      if payload_digest (handle req) <> digest then
        problem "mirror: set-up reply to %s differs" (P.request_kind req))
    setup;
  let memo = Hashtbl.create 64 in
  let mismatches = ref 0 in
  List.iter
    (fun ph ->
      Array.iteri
        (fun i op ->
          if op.cls <> Poll && ph.status.(i) <> Shed then begin
            let want =
              if op.inst = "atlas" then (
                match Hashtbl.find_opt memo op.frame with
                | Some d -> d
                | None ->
                    let d = payload_digest (handle op.req) in
                    Hashtbl.replace memo op.frame d;
                    d)
              else payload_digest (handle op.req)
            in
            if want <> ph.digest.(i) then incr mismatches
          end)
        ph.ops)
    phases;
  if !mismatches > 0 then begin
    failed := !failed + !mismatches;
    problem "mirror: %d replies differ from the in-process registry" !mismatches
  end

(* ------------------------------------------------------------------ *)
(* Incremental replay (traced runs)                                    *)
(* ------------------------------------------------------------------ *)

let update_us = ref []
let resolve_s = ref []
let queries = ref 0
let cached_queries = ref 0
let partial_rebuilds = ref 0

let inc_replay (s : spec) reqs =
  let inc =
    Spans.with_ "cso.inc.create" (fun () ->
        Inc.create ~eps:s.eps ~rounds ~drift:2.0 ~rects:s.rects ~k:s.k ~z:s.z ())
  in
  let timed f =
    let t0 = now () in
    let r = f () in
    update_us := ((now () -. t0) *. 1e6) :: !update_us;
    r
  in
  let query () =
    incr queries;
    if Inc.needs_resolve inc then begin
      let t0 = now () in
      ignore (observe_solve "cso.inc.query" (fun () -> Inc.query inc));
      resolve_s := (now () -. t0) :: !resolve_s
    end
    else begin
      incr cached_queries;
      ignore (Spans.with_ "cso.inc.query" (fun () -> Inc.query inc))
    end
  in
  Spans.with_ "cso.inc.replay" @@ fun () ->
  Array.iter
    (fun p -> ignore (timed (fun () -> Spans.with_ "cso.inc.insert" (fun () -> Inc.insert inc p))))
    s.points;
  List.iter
    (function
      | P.Solve _ -> query ()
      | P.Insert { point; _ } ->
          ignore (timed (fun () -> Spans.with_ "cso.inc.insert" (fun () -> Inc.insert inc point)))
      | P.Delete { id; _ } -> timed (fun () -> Spans.with_ "cso.inc.delete" (fun () -> Inc.delete inc id))
      | P.Insert_rect { rect; _ } ->
          ignore (Spans.with_ "cso.inc.insert_rect" (fun () -> Inc.insert_rect inc rect))
      | P.Delete_rect { id; _ } -> (
          match Spans.with_ "cso.inc.delete_rect" (fun () -> Inc.delete_rect inc id) with
          | Ok () -> ()
          | Error _ -> problem "replay: delete_rect %d refused" id)
      | _ -> ())
    reqs;
  partial_rebuilds := !partial_rebuilds + (Inc.ball_stats inc).Cso_geom.Dynamic.partial_rebuilds

(* ------------------------------------------------------------------ *)
(* Daemon-side layer figures (traced runs)                             *)
(* ------------------------------------------------------------------ *)

let stats_counters c =
  match rpc c P.Stats with
  | _, P.Stats_reply blob -> (
      match Obs.Json.member "counters" (Obs.Json.parse blob) with
      | Some j -> List.map (fun (k, v) -> (k, Obs.Json.num v)) (Obs.Json.obj j)
      | None -> fail "stats reply without counters")
  | _ -> fail "unexpected stats reply"

(* The highest request id the daemon has recorded so far: records up to
   it belong to set-up, not to the measured phases. *)
let flight_cutoff c =
  match rpc c P.Flight with
  | _, P.Flight_reply text ->
      List.fold_left (fun m r -> max m r.Obs.Flight.fl_id) (-1) (Obs.Flight.parse_jsonl text)
  | _ -> fail "unexpected flight reply"

(* [last] is a final Flight dump taken after every reply arrived: records
   are pushed in flush order, so the last poll of a phase can miss a few
   that were still flushing. *)
let flight_layers phases ~cutoff ~last ~stats0 ~stats1 =
  let recs = Hashtbl.create 4096 in
  let add text =
    List.iter
      (fun r -> if r.Obs.Flight.fl_id > cutoff then Hashtbl.replace recs r.fl_id r)
      (Obs.Flight.parse_jsonl text)
  in
  List.iter
    (fun ph ->
      Hashtbl.iter
        (fun _ payload ->
          match P.decode_response P.Binary payload with
          | Ok (P.Flight_reply text) -> add text
          | _ -> problem "flight poll: unexpected reply")
        ph.polls)
    phases;
  add last;
  let all = Hashtbl.fold (fun _ r acc -> r :: acc) recs [] in
  let ids = List.map (fun r -> r.Obs.Flight.fl_id) all in
  let lost =
    if ids = [] then 0 else List.fold_left max 0 ids - List.fold_left min max_int ids + 1 - List.length ids
  in
  put report "serve.flight_lost" "records" (List.length all) (float_of_int lost);
  let work = List.filter (fun r -> r.Obs.Flight.fl_kind <> "flight" && r.fl_kind <> "stats") all in
  let col f rs = List.map (fun r -> float_of_int (f r)) rs in
  let nw = List.length work in
  put layers "serve.queue_us.p50" "us" nw (pct (col (fun r -> r.Obs.Flight.fl_queue_us) work) 50.0);
  put layers "serve.queue_us.p99" "us" nw (pct (col (fun r -> r.Obs.Flight.fl_queue_us) work) 99.0);
  put layers "serve.flush_us.p99" "us" nw (pct (col (fun r -> r.Obs.Flight.fl_flush_us) work) 99.0);
  let kinds = List.sort_uniq compare (List.map (fun r -> r.Obs.Flight.fl_kind) work) in
  List.iter
    (fun kind ->
      let rs = List.filter (fun r -> r.Obs.Flight.fl_kind = kind) work in
      let ex = col (fun r -> r.Obs.Flight.fl_exec_us) rs in
      let gated = List.mem kind [ "ball"; "assign"; "solve"; "balls_all" ] in
      let r = if gated then layers else report in
      put r (Printf.sprintf "serve.exec_us.%s.p50" kind) "us" (List.length rs) (pct ex 50.0);
      put r (Printf.sprintf "serve.exec_us.%s.p99" kind) "us" (List.length rs) (pct ex 99.0);
      let mirror = List.filter_map (fun (k, v) -> if k = kind then Some v else None) !mirror_exec_us in
      if mirror <> [] then
        put report (Printf.sprintf "registry.handle_us.%s.p50" kind) "us" (List.length mirror)
          (median mirror))
    kinds;
  let d k = List.assoc k stats1 -. Option.value (List.assoc_opt k stats0) ~default:0.0 in
  let reqs = d "serve.requests" in
  put layers "serve.bytes_in" "B/request" (int_of_float reqs) (d "serve.bytes_in" /. reqs);
  put layers "serve.bytes_out" "B/request" (int_of_float reqs) (d "serve.bytes_out" /. reqs);
  put report "serve.overloads" "count" (int_of_float reqs) (d "serve.overloads")

(* ------------------------------------------------------------------ *)
(* Serve workloads                                                     *)
(* ------------------------------------------------------------------ *)

type boot = { d : daemon; c : conn; setup_digests : (P.request * string) list }

(* Boot a daemon and make its instances resident: Load, Solve and
   Prepare atlas, Load and Solve every other instance. Returns the
   client-observed time of atlas's cold Solve. *)
let boot ~exe ~workdir specs =
  let d = Spans.with_ "serve.daemon.boot" (fun () -> spawn_daemon ~exe ~workdir) in
  let c = Spans.with_ "serve.daemon.connect" (fun () -> connect d) in
  let digests = ref [] in
  let step req =
    let payload, r = Spans.with_ ("serve.setup." ^ P.request_kind req) (fun () -> rpc c req) in
    if is_error_reply r then fail "set-up %s failed" (P.request_kind req);
    digests := (req, Digest.string payload) :: !digests
  in
  let solve_time = ref nan in
  List.iter
    (fun s ->
      step (load_req s);
      let t0 = now () in
      step (P.Solve s.iname);
      if s.iname = "atlas" then solve_time := now () -. t0;
      if s.iname = "atlas" then step (P.Prepare s.iname))
    specs;
  ({ d; c; setup_digests = List.rev !digests }, !solve_time)

let serve_setup ~exe ~workdir sc specs =
  let rec go i acc_setup acc_solve =
    let t0 = now () in
    let b, solve = boot ~exe ~workdir specs in
    let setup = now () -. t0 in
    put report (Printf.sprintf "setup_s.boot%d" i) "s" 1 setup;
    put report (Printf.sprintf "rss_mb.boot%d" i) "MB" 1 (vm_hwm_mb (string_of_int b.d.pid));
    if i + 1 < sc.serve_setups then begin
      Spans.with_ "serve.daemon.shutdown" (fun () -> shutdown b.d b.c);
      go (i + 1) (setup :: acc_setup) (solve :: acc_solve)
    end
    else (b, setup :: acc_setup, solve :: acc_solve)
  in
  let b, setups, solves = go 0 [] [] in
  put e2e "setup_s" "s" (List.length setups) (median setups);
  (b, solves)

let poll_ops ~secs =
  List.init (max 1 (int_of_float (secs /. 0.5))) (fun i ->
      mk_op ~at:(0.25 +. (0.5 *. float_of_int i)) ~conn:0 ~inst:"" ~cls:Poll P.Flight)

let with_polls ~secs ops =
  let ops = if !Spans.on then ops @ poll_ops ~secs else ops in
  Array.of_list (List.stable_sort (fun a b -> compare a.at b.at) ops)

(* Daemon counters and flight position before the measured phases. *)
let before b = if !Spans.on then (stats_counters b.c, flight_cutoff b.c) else ([], -1)

let finish_serve ~b ~conns ~phases ~before:(stats0, cutoff) =
  let last =
    if not !Spans.on then ""
    else match rpc b.c P.Flight with _, P.Flight_reply t -> t | _ -> fail "unexpected flight reply"
  in
  let stats1 = if !Spans.on then stats_counters b.c else [] in
  let rss = vm_hwm_mb (string_of_int b.d.pid) in
  put e2e "peak_rss_mb" "MB" 1 rss;
  Array.iteri (fun i c -> if i > 0 then Unix.close c.fd) conns;
  Spans.with_ "serve.daemon.shutdown" (fun () -> shutdown b.d b.c);
  List.iter account phases;
  Spans.with_ "serve.mirror" (fun () -> mirror_check ~setup:b.setup_digests phases);
  if !Spans.on then begin
    flight_layers phases ~cutoff ~last ~stats0 ~stats1;
    List.iter (fun ph -> time_encode ph.ops) phases
  end

let serve_conns b =
  [| b.c; Spans.with_ "serve.daemon.connect" (fun () -> connect b.d) |]

let drive conns phases = List.iter (run_phase ~conns) phases

(* Drive one phase and report the daemon's CPU time per request in it:
   the work the serving path does, which wake-up delays on a shared host
   do not inflate the way they inflate a sub-millisecond latency. *)
let drive_measured b conns ph =
  let c0 = cpu_s b.d.pid in
  run_phase ~conns ph;
  let c1 = cpu_s b.d.pid in
  let n = Array.fold_left (fun n op -> if op.cls = Poll then n else n + 1) 0 ph.ops in
  put e2e "cpu_ms_per_op" "ms" n ((c1 -. c0) *. 1e3 /. float_of_int n)

let serve_read ~exe ~workdir sc ~seed ~seconds =
  let atlas = atlas_spec sc seed in
  let b, setup_solves = serve_setup ~exe ~workdir sc [ atlas ] in
  put e2e "solve_s.p50" "s" (List.length setup_solves) (median setup_solves);
  let conns = serve_conns b in
  let before = before b in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let phase ?gated label rate secs =
    mk_phase ?gated label rate
      (with_polls ~secs (read_ops rng atlas ~rate ~secs ~conns:(Array.length conns)))
  in
  let ref_s = 0.7 *. seconds in
  let rung_s = 0.3 *. seconds /. float_of_int (List.length sc.ladder) in
  let warm = phase "warmup" sc.ref_qps sc.warmup_s in
  let refp = phase "ref" sc.ref_qps ref_s in
  let rungs = List.map (fun r -> phase ~gated:false (Printf.sprintf "q%.0f" r) r rung_s) sc.ladder in
  let phases = (warm :: refp :: rungs) in
  drive conns [ warm ];
  drive_measured b conns refp;
  drive conns rungs;
  finish_serve ~b ~conns ~phases ~before;
  let reads = latencies refp in
  let n = List.length reads in
  put report "read_ms.p50" "ms" n (median reads);
  put report "read_ms.p99" "ms" n (pct reads 99.0);
  let slo =
    List.fold_left
      (fun best ph ->
        let l = latencies ph in
        let p99 = pct l 99.0 in
        put report (Printf.sprintf "read_ms.p99.%s" ph.label) "ms" (List.length l) p99;
        let growing = ph.backlog_end > max 4 (int_of_float (0.25 *. ph.rate)) in
        if p99 <= slo_p99_ms && (not growing) && (not ph.late) && ph.shed = 0 then
          Float.max best ph.rate
        else best)
      0.0 (refp :: rungs)
  in
  put report "slo_qps" "qps" (List.length rungs + 1) slo;
  if !Spans.on then begin
    direct_probes ~solve_geo:(geo_of atlas) ~eps:atlas.eps ~ball_points:atlas.points ~radius:atlas.all_r;
    inc_replay atlas
      (List.concat_map
         (fun ph -> Array.to_list ph.ops |> List.filter (fun o -> o.inst = "atlas") |> List.map (fun o -> o.req))
         phases)
  end

let serve_mixed ~exe ~workdir sc ~seed ~seconds =
  let atlas = atlas_spec sc seed and feed = feed_spec sc seed in
  let b, _ = serve_setup ~exe ~workdir sc [ atlas; feed ] in
  let conns = serve_conns b in
  let before = before b in
  let rng = Random.State.make [| seed; 0x313ed |] in
  (* 30% of the offered rate goes to feed, of which ~90% are writes. *)
  let writes = 0.3 *. sc.mixed_qps *. 0.9 *. (seconds +. sc.warmup_s) in
  let every = max 2 (int_of_float (writes /. float_of_int sc.resolves)) in
  let next_feed = feed_stream rng feed ~every and next_read = read_reqs rng atlas in
  let phase label secs =
    arrivals rng ~rate:sc.mixed_qps ~secs
    |> List.map (fun at ->
           if Random.State.float rng 1.0 < 0.3 then
             let cls, req = next_feed () in
             mk_op ~at ~conn:1 ~inst:feed.iname ~cls req
           else mk_op ~at ~conn:(Random.State.int rng 2) ~inst:atlas.iname ~cls:Read (next_read ()))
    |> with_polls ~secs
    |> mk_phase label sc.mixed_qps
  in
  let warm = phase "warmup" sc.warmup_s in
  let main = phase "mixed" seconds in
  let phases = [ warm; main ] in
  drive conns [ warm ];
  drive_measured b conns main;
  finish_serve ~b ~conns ~phases ~before;
  let reads = latencies main and wr = latencies ~keep:(fun c -> c = Write) main in
  let rs = List.map (fun ms -> ms /. 1e3) (latencies ~keep:(fun c -> c = Resolve) main) in
  let n = List.length reads in
  put e2e "solve_s.p50" "s" (List.length rs) (median rs);
  put report "read_ms.p50" "ms" n (median reads);
  put report "read_ms.p99" "ms" n (pct reads 99.0);
  put report "write_ms.p50" "ms" (List.length wr) (median wr);
  put report "write_ms.p99" "ms" (List.length wr) (pct wr 99.0);
  put report "resolve_ms.p50" "ms" (List.length rs) (median rs *. 1e3);
  if !Spans.on then begin
    direct_probes ~solve_geo:(geo_of feed) ~eps:feed.eps ~ball_points:atlas.points ~radius:atlas.all_r;
    inc_replay feed
      (List.concat_map
         (fun ph -> Array.to_list ph.ops |> List.filter (fun o -> o.inst = "feed") |> List.map (fun o -> o.req))
         phases)
  end

(* The planted clusters have unit spread, so atlas's radii would return
   whole clusters; the probe reads at a radius of the clusters' scale. *)
let probe_r = 0.1

(* cold_solve's traced run also sends its first instance through a
   daemon (Load, Solve, Prepare, then a short read phase), so the serve
   layers are measured on this workload's inputs too. *)
let cold_serve_probe ~exe ~workdir sc (g : Planted.gcso) =
  let s =
    { iname = "atlas"; points = g.geo.Geo.points; rects = g.geo.Geo.rects; k = g.geo.Geo.k;
      z = g.geo.Geo.z; eps = cold_eps; ball_r = probe_r; all_r = probe_r }
  in
  let b, _ = boot ~exe ~workdir [ s ] in
  let conns = serve_conns b in
  let before = before b in
  let rng = Random.State.make [| 0xc01d; 7 |] in
  let ph =
    mk_phase "probe" sc.ref_qps
      (with_polls ~secs:sc.probe_s (read_ops rng s ~rate:sc.ref_qps ~secs:sc.probe_s ~conns:2))
  in
  drive conns [ ph ];
  let saved = !e2e in
  finish_serve ~b ~conns ~phases:[ ph ] ~before;
  e2e := saved;
  inc_replay s (P.Solve s.iname :: List.map (fun o -> o.req) (Array.to_list ph.ops))

let cold_solve ~exe ~workdir sc ~seed ~seconds =
  (* The set-up (a few ms) is timed [setups] times before the solves. *)
  let builds =
    List.init sc.setups (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (cold_batch sc seed));
        now () -. t0)
  in
  let batch = cold_batch sc seed in
  let times = ref [] and ratios = ref [] and blowups = ref [] in
  let cpu_self () =
    let t = Unix.times () in
    t.tms_utime +. t.tms_stime
  in
  let cpu0 = cpu_self () in
  let t_end = now () +. seconds in
  let i = ref 0 in
  while now () < t_end || !i < sc.cold_min_solves do
    let g = batch.(!i mod Array.length batch) in
    let t0 = now () in
    let rep = observe_solve "cso.gcso.solve" (fun () -> Gcso.solve ~eps:cold_eps ~rounds g.Planted.geo) in
    let dt = now () -. t0 in
    let sol = rep.Gcso.solution in
    let cost = Geo.cost g.geo sol in
    let ok = Geo.is_valid g.geo sol && cost <= (2.0 +. cold_eps) *. g.g_opt_upper in
    count_op ok;
    if not ok then problem "cold solve %d: invalid or above (2+eps) x planted bound" !i;
    times := dt :: !times;
    ratios := (cost /. g.g_opt_upper) :: !ratios;
    blowups := (float_of_int (List.length sol.Cso_core.Instance.centers) /. 4.0) :: !blowups;
    incr i
  done;
  let cpu = cpu_self () -. cpu0 in
  put e2e "setup_s" "s" sc.setups (median builds);
  let n = List.length !times in
  put e2e "solve_s.p50" "s" n (median !times);
  put e2e "cpu_ms_per_op" "ms" n (cpu *. 1e3 /. float_of_int n);
  put report "solve_s.max" "s" n (fmax !times);
  put e2e "peak_rss_mb" "MB" 1 (vm_hwm_mb "self");
  put report "cost_ratio.max" "ratio" n (fmax !ratios);
  put report "center_blowup.max" "ratio" n (fmax !blowups);
  if !Spans.on then begin
    direct_probes ~solve_geo:batch.(0).geo ~eps:cold_eps ~ball_points:batch.(0).geo.Geo.points
      ~radius:probe_r;
    cold_serve_probe ~exe ~workdir sc batch.(0)
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6f %-10s n=%d\n" m.name m.value m.unit_ m.n)
    (List.rev ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref "" and workdir = ref "." and toy_scale = ref false and commit = ref "unknown" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--daemon", Arg.Set_string exe, "PATH csokitd executable");
      ("--workdir", Arg.Set_string workdir, "DIR sockets, daemon logs, span dumps");
      ("--toy", Arg.Set toy_scale, " toy sizes (self-test)");
      ("--commit", Arg.Set_string commit, "ID source revision to record");
    ]
    (fun w -> workload := w)
    "bench.exe WORKLOAD [options]";
  let sc = if !toy_scale then toy else full in
  Spans.on := !trace = 1;
  if !Spans.on then Obs.set_enabled true;
  Obs.set_clock Unix.gettimeofday;
  (* Kill every daemon on every way out; run.py's timeout kills the whole
     process group, daemons included. *)
  at_exit reap_all;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let exe = !exe and workdir = !workdir and seed = !seed and seconds = !seconds in
  Printf.printf "host: nproc=%d pool_domains=%d ocaml=%s commit=%s\n"
    (Domain.recommended_domain_count ())
    (Pool.default_size ()) Sys.ocaml_version !commit;
  Printf.printf "run: workload=%s seed=%d seconds=%g trace=%d scale=%s\n%!" !workload seed
    seconds !trace
    (if !toy_scale then "toy" else "full");
  let t_run = now () in
  (try
     match !workload with
     | "cold_solve" -> cold_solve ~exe ~workdir sc ~seed ~seconds
     | "serve_read" -> serve_read ~exe ~workdir sc ~seed ~seconds
     | "serve_mixed" -> serve_mixed ~exe ~workdir sc ~seed ~seconds
     | w ->
         prerr_endline ("perfbench: unknown workload " ^ w);
         exit 2
   with
  | Check msg ->
      reap_all ();
      prerr_endline ("perfbench: " ^ msg);
      exit 1
  | Unix.Unix_error (e, f, a) ->
      reap_all ();
      Printf.eprintf "perfbench: %s(%s): %s\n" f a (Unix.error_message e);
      exit 1);
  let wall = now () -. t_run in
  if !Spans.on then begin
    emit_per_solve ();
    put layers "cso.inc.resolve_s" "s" (List.length !resolve_s) (median !resolve_s);
    put layers "cso.inc.cache_hit_share" "ratio" !queries
      (float_of_int !cached_queries /. float_of_int (max 1 !queries));
    put layers "geom.dynamic.update_us.p50" "us" (List.length !update_us) (median !update_us);
    put layers "geom.dynamic.update_us.p99" "us" (List.length !update_us) (pct !update_us 99.0);
    put layers "geom.dynamic.partial_rebuilds" "count" 1 (float_of_int !partial_rebuilds);
    put layers "serve.codec_us.encode" "us" !encodes (!encode_time *. 1e6 /. float_of_int (max 1 !encodes));
    put layers "serve.codec_us.decode" "us" !decodes (!decode_time *. 1e6 /. float_of_int (max 1 !decodes));
    put layers "obs.trace_overhead" "ratio" 1 ((!Spans.cost +. !snapshot_cost) /. wall);
    Printf.printf "self time per span (traced run):\n  %-44s %6s %10s %10s\n" "span" "calls" "total_s" "self_s";
    List.iter
      (fun (name, (calls, tot, self)) ->
        Printf.printf "  %-44s %6d %10.4f %10.4f\n" name calls tot self)
      (Spans.self_table ());
    Spans.write (Printf.sprintf "%s/spans-%s-%d.jsonl" workdir !workload seed)
  end;
  put report "fail_share" "ratio" !attempted
    (float_of_int (!failed + !shed_total) /. float_of_int (max 1 !attempted));
  print_metrics "end-to-end:" (if !Spans.on then [] else !e2e);
  print_metrics "report:" !report;
  if !Spans.on then print_metrics "per-layer:" !layers;
  let gated = if !Spans.on then !layers else !e2e in
  List.iter
    (fun m -> if not (Float.is_finite m.value) then problem "metric %s was not measured" m.name)
    gated;
  List.iter (fun p -> Printf.printf "check failed: %s\n" p) (List.rev !problems);
  let correct = !problems = [] && !failed = 0 && !attempted > 0 in
  let fields =
    List.rev_map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_num m.value) m.unit_)
      gated
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (String.concat ", " fields);
  exit (if correct then 0 else 1)
