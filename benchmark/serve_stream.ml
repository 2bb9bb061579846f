(* serve-stream: one client, one request at a time, against an in-process
   [Serve.run] daemon on a Unix socket. The daemon has a disk tier and a
   memory tier smaller than the round's key set, so hits come from both
   tiers; every key is asked several times, so each round has cache
   writes and cold solves (misses) beside reads (hits).

   A round asks the keys in a seeded order and a fixed pattern of misses,
   memory hits and, once the memory tier has evicted a key, disk hits
   ([block] below). The cache tiers are least-recently-used and blind to
   what a key holds, so every seed gives the same sequence of misses,
   memory hits and disk hits: the seed decides only which key fills which
   place.

   Every round starts a fresh daemon on an empty cache and sends the same
   requests in the same order, so every round has the same misses and
   hits; the daemon's start and stop fall between rounds and are not
   timed. Cache directories and sockets live under [.bench_serve/] in
   the working directory and are removed as soon as a round ends. *)

module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Clip = Optrouter_grid.Clip
module Route = Optrouter_grid.Route
module Optrouter = Optrouter_core.Optrouter
module Milp = Optrouter_ilp.Milp
module Clipfile = Optrouter_clipfile.Clipfile
module Serve = Optrouter_serve.Serve
module Cache = Optrouter_serve.Cache
open Harness

(* RULE1 and three rules every tech is evaluated under: SADP from M3,
   4 blocked via neighbours, DSA via coloring. *)
let rule_ids = [ 1; 3; 6; 12 ]
let cache_capacity = 8

(* A round takes the keys in blocks of [block]: the block's misses, then
   [hits_per_key] passes of memory hits over it; then the first
   [revisited_blocks] blocks again, a pass of disk hits (each promoting
   its entry) and a pass of memory hits. With 6 windows x 4 rules = 24
   keys that is 120 requests: 24 misses (20%), 12 disk hits and 84 memory
   hits. [op_p90_ms] thus falls on the median miss and [op_p50_ms] inside
   the memory hits. The request after a cold solve pays for the solve's
   garbage (about twice a memory hit's latency), so misses come in a row
   and only one request in each block pays it. *)
let block = 4
let hits_per_key = 3
let revisited_blocks = 3

(* Far above any pool solve, so the server's deadline never decides a
   verdict. *)
let time_limit_s = 600.0

let base_config = Optrouter.default_config

(* What the daemon solves a miss with ([Serve]'s per-request config). *)
let solve_config =
  {
    base_config with
    Optrouter.milp =
      {
        base_config.Optrouter.milp with
        Milp.time_limit_s = Some time_limit_s;
        solver_jobs = 1;
      };
  }

type request = { tech : Tech.t; clip : Clip.t; rule : int; nth : int }

type ctx = {
  windows : Inputs.windows;
  requests : request list;  (** the round, in order *)
  reference : (string * int, string * (string * int) list) Hashtbl.t;
      (** per key: the payload and work counters of a direct solve *)
  mutable first : (request * Serve.cache_status option * string) list;
}

let root = ".bench_serve"

let fresh_dir r =
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "%d-%d" (Unix.getpid ()) r) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* One domain hosts every daemon of a run, one after another, as one
   daemon process restarted between rounds would. With a domain per
   daemon, whether a stopped daemon's heap was taken back before the next
   one grew its own depended on timing, and [peak_heap_mb] read 24 MB on
   some runs and 37 to 45 MB on others. *)
type host = {
  m : Mutex.t;
  c : Condition.t;
  mutable job : (unit -> unit) option;  (** posted, not yet taken *)
  mutable busy : bool;  (** a job is posted or running *)
  mutable failed : exn option;  (** what the last job raised *)
  mutable stop : bool;
  mutable domain : unit Domain.t option;
}

let host =
  {
    m = Mutex.create ();
    c = Condition.create ();
    job = None;
    busy = false;
    failed = None;
    stop = false;
    domain = None;
  }

let rec host_loop () =
  Mutex.lock host.m;
  while host.job = None && not host.stop do
    Condition.wait host.c host.m
  done;
  match host.job with
  | None -> Mutex.unlock host.m
  | Some f ->
    host.job <- None;
    Mutex.unlock host.m;
    let failed = match f () with () -> None | exception e -> Some e in
    Mutex.protect host.m (fun () ->
        host.failed <- failed;
        host.busy <- false;
        Condition.broadcast host.c);
    host_loop ()

let host_start f =
  if host.domain = None then host.domain <- Some (Domain.spawn host_loop);
  Mutex.protect host.m (fun () ->
      host.job <- Some f;
      host.busy <- true;
      Condition.broadcast host.c)

(* Waits for the job to end and raises what it raised. *)
let host_wait () =
  Mutex.protect host.m (fun () ->
      while host.busy do
        Condition.wait host.c host.m
      done);
  Option.iter raise host.failed

(* Left when the last run in this directory ends: stops and joins the
   host domain unless a daemon still runs on it (a failed round), and
   removes the cache root. *)
let cleanup () =
  (match host.domain with
  | Some d when not (Mutex.protect host.m (fun () -> host.busy)) ->
    Mutex.protect host.m (fun () ->
        host.stop <- true;
        Condition.broadcast host.c);
    Domain.join d;
    host.domain <- None
  | Some _ | None -> ());
  try Sys.rmdir root with Sys_error _ -> ()

(* A daemon for one round: started on the host domain, used by [f], shut
   down and waited for, its directory removed. *)
let with_daemon r f =
  let dir = fresh_dir r in
  let sock = Filename.concat dir "s.sock" in
  let engine =
    Serve.create
      (Serve.make_params
         ~cache_dir:(Filename.concat dir "cache")
         ~cache_capacity ~jobs:1 ~solver_jobs:1 ~time_limit_s
         ~config:base_config ())
  in
  host_start (fun () -> Serve.run engine [ Serve.Unix_socket sock ]);
  (* Wait for the bind rather than lean on [connect]'s 100 ms retry. *)
  let rec wait n =
    if (not (Sys.file_exists sock)) && n > 0 then begin
      Unix.sleepf 0.001;
      wait (n - 1)
    end
  in
  wait 5000;
  let fd = Serve.connect (Serve.Unix_socket sock) in
  let finish () =
    ignore (Serve.roundtrip fd (Serve.shutdown_line ^ "\n"));
    host_wait ();
    Serve.destroy engine;
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    remove dir
  in
  Fun.protect ~finally:finish (fun () -> f fd)

let keys windows =
  List.concat_map
    (fun (tech, clip) -> List.map (fun rule -> (tech, clip, rule)) rule_ids)
    (Inputs.fixed windows Pools.reduced)

let setup ~seed () =
  let windows = Inputs.reduced_windows () in
  let keys = Inputs.shuffle (Inputs.rng ~seed) (keys windows) in
  let blocks =
    List.init (List.length keys / block) (fun b ->
        List.filteri (fun i _ -> i / block = b) keys)
  in
  let pass ks nth = List.map (fun (tech, clip, rule) -> { tech; clip; rule; nth }) ks in
  let passes ks ~from n = List.concat (List.init n (fun i -> pass ks (from + i))) in
  let requests =
    List.concat_map (fun ks -> passes ks ~from:0 (1 + hits_per_key)) blocks
    @ List.concat_map
        (fun ks -> passes ks ~from:(1 + hits_per_key) 2)
        (List.filteri (fun b _ -> b < revisited_blocks) blocks)
  in
  (* The daemon's start and stop are part of a user's set-up. *)
  with_daemon (-1) (fun _ -> ());
  { windows; requests; reference = Hashtbl.create 32; first = [] }

let message q = Serve.text_request ~rule:q.rule (Clipfile.to_string q.clip)

let verdict_of payload =
  match String.index_opt payload '\n' with
  | Some i -> String.sub payload 0 i
  | None -> payload

let status_text = function
  | Some s -> Serve.status_line s
  | None -> "cache none"

let op_of q status payload ~work wall =
  let verdict = verdict_of payload in
  {
    key = Printf.sprintf "%s/RULE%d#%d" q.clip.Clip.c_name q.rule q.nth;
    outcome =
      Printf.sprintf "%s; %s; %s" (status_text status) verdict
        (Digest.to_hex (Digest.string payload));
    work;
    wall_s = wall;
    failed =
      not (verdict = "verdict routed" || verdict = "verdict unroutable");
    solved =
      (match status with
      | Some (Serve.Miss | Serve.Bypass) | None -> true
      | Some (Serve.Hit_memory | Serve.Hit_disk) -> false);
  }

(* The work counters of a cold solve; a hit has none. *)
let solve_work (r : Optrouter.result) =
  let st = r.Optrouter.stats in
  [
    ("nodes", st.Optrouter.nodes);
    ("simplex_iterations", st.Optrouter.simplex_iterations);
    ("root_lp_iters", st.Optrouter.root_lp_iters);
  ]

let key_of q = (q.clip.Clip.c_name, q.rule)

(* A reply as an op. A miss must equal [Serve.payload_of_result] of the
   direct [Optrouter.route] of its key made at warm-up, outside the
   daemon, and carries that solve's work counters. *)
let checked_op ctx q (status, payload, wall) =
  let work =
    match status with
    | Some (Serve.Hit_memory | Serve.Hit_disk) -> []
    | Some (Serve.Miss | Serve.Bypass) | None ->
      let direct, work = Hashtbl.find ctx.reference (key_of q) in
      check (payload = direct) "%s RULE%d: miss payload differs from a direct route"
        q.clip.Clip.c_name q.rule;
      work
  in
  op_of q status payload ~work wall

let request fd q =
  let t0 = now () in
  let frame = Serve.roundtrip fd (message q) in
  let wall = now () -. t0 in
  match Serve.parse_response frame with
  | Ok (status, payload) -> (status, payload, wall)
  | Error e ->
    raise
      (Check_failed
         (Printf.sprintf "%s RULE%d: bad response: %s" q.clip.Clip.c_name q.rule e))

let round ctx r =
  let replies =
    with_daemon r (fun fd -> List.map (fun q -> (q, request fd q)) ctx.requests)
  in
  if r = 0 then ctx.first <- List.map (fun (q, (s, p, _)) -> (q, s, p)) replies;
  List.map (fun (q, reply) -> checked_op ctx q reply) replies

(* [Serve.handle_batch] for one request, traced: the client's clipfile
   print, then the daemon's parse, key, cache find and, on a miss, the
   exact solve (traced like [Optrouter.route]), payload and store — on a
   cache of the daemon's shape in a directory of its own. *)
let traced_request tr cache q =
  let t0 = now () in
  let text = Trace.span tr "print" (fun () -> Clipfile.to_string q.clip) in
  let msg = Serve.text_request ~rule:q.rule text in
  let req =
    match Trace.span tr "parse" (fun () -> Serve.parse_request msg) with
    | Ok req -> req
    | Error e -> raise (Check_failed ("parse_request: " ^ e))
  in
  let key =
    Trace.span tr "key" (fun () ->
        Serve.cache_key ~config:base_config ~tech:req.Serve.tech
          ~rules:req.Serve.rules req.Serve.clip)
  in
  let status, payload, work =
    match Trace.span tr "find" (fun () -> Cache.find cache key) with
    | Some (p, Cache.Memory) ->
      Trace.count tr "cache.mem_hits" 1;
      (Serve.Hit_memory, p, [])
    | Some (p, Cache.Disk) ->
      Trace.count tr "cache.disk_hits" 1;
      (Serve.Hit_disk, p, [])
    | None ->
      Trace.count tr "cache.misses" 1;
      let result =
        Exact.route tr ~config:solve_config ~tech:req.Serve.tech
          ~rules:req.Serve.rules req.Serve.clip
      in
      let payload = Serve.payload_of_result result in
      (match result.Optrouter.verdict with
      | Optrouter.Routed _ | Optrouter.Unroutable ->
        Trace.span tr "store" (fun () -> Cache.store cache key payload)
      | Optrouter.Limit _ | Optrouter.Near_optimal _ -> ());
      (Serve.Miss, payload, solve_work result)
  in
  op_of q (Some status) payload ~work (now () -. t0)

let traced_round ctx tr r =
  with_daemon r (fun fd ->
      let dir = fresh_dir (1000 + r) in
      Fun.protect
        ~finally:(fun () -> remove dir)
        (fun () ->
          let cache = Cache.create ~dir ~capacity:cache_capacity () in
          let pairs =
            List.map
              (fun q ->
                let reply = request fd q in
                let u = checked_op ctx q reply in
                let t = with_gc tr (fun () -> traced_request tr cache q) in
                ((q, reply), u, t))
              ctx.requests
          in
          if r = 0 then
            ctx.first <- List.map (fun ((q, (s, p, _)), _, _) -> (q, s, p)) pairs;
          ( List.map (fun (_, u, _) -> u) pairs,
            List.map (fun (_, _, t) -> t) pairs )))

(* Every key has one miss, which proves its verdict, and every hit is
   byte-identical to its key's miss (each miss already equals a direct
   route: [checked_op]). Verdicts are read from the payload
   [Serve.parse_response] returns. *)
let verify ctx =
  let misses = Hashtbl.create 32 in
  List.iter
    (fun (q, status, payload) ->
      let k = key_of q in
      let name = Printf.sprintf "%s RULE%d" q.clip.Clip.c_name q.rule in
      match status with
      | Some (Serve.Miss | Serve.Bypass) | None ->
        check (not (Hashtbl.mem misses k)) "%s: a second miss" name;
        let v = verdict_of payload in
        check
          (v = "verdict routed" || v = "verdict unroutable")
          "%s: %s" name v;
        Hashtbl.replace misses k payload
      | Some (Serve.Hit_memory | Serve.Hit_disk) -> (
        match Hashtbl.find_opt misses k with
        | Some p -> check (p = payload) "%s: hit differs from its miss" name
        | None -> raise (Check_failed (name ^ ": hit before any miss"))))
    ctx.first

type references = ((string * int) * (string * (string * int) list)) list

(* [main.exe --serve-references]: every key solved once directly by
   [Optrouter.route], outside any daemon, written marshalled to stdout as
   [references]. *)
let write_references () =
  let refs : references =
    List.map
      (fun (tech, clip, rule) ->
        let direct =
          Optrouter.route ~config:solve_config ~tech ~rules:(Rules.rule rule) clip
        in
        ( (clip.Clip.c_name, rule),
          (Serve.payload_of_result direct, solve_work direct) ))
      (keys (Inputs.reduced_windows ()))
  in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout refs [];
  flush stdout

(* The reference solves come from a child process, so the heap they
   leave is not this one's: made here, beside the daemon domains, they
   raised [peak_heap_mb] from about 24 to about 42 MB on most runs but
   not all. Then one untimed round on a daemon of its own, checked
   against them; a single warm-up request left the first timed round
   slower than the next ones. *)
let warm_up ctx =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--serve-references" |] in
  set_binary_mode_in ic true;
  let refs =
    match (Marshal.from_channel ic : references) with
    | refs -> Some refs
    | exception (End_of_file | Failure _) -> None
  in
  (match (Unix.close_process_in ic, refs) with
  | Unix.WEXITED 0, Some refs ->
    List.iter (fun (k, r) -> Hashtbl.replace ctx.reference k r) refs
  | _ -> raise (Check_failed "the reference solves' process failed"));
  let replies =
    with_daemon (-2) (fun fd -> List.map (fun q -> (q, request fd q)) ctx.requests)
  in
  List.iter (fun (q, reply) -> ignore (checked_op ctx q reply)) replies

let p50_ms ops =
  match ops with [] -> 0.0 | _ -> percentile_ms 50.0 ops

(* Cache reads and cold solves as the caller waits for them. *)
let hit_miss_p50_ms ops =
  ( p50_ms (List.filter (fun o -> not o.solved) ops),
    p50_ms (List.filter (fun o -> o.solved) ops) )
