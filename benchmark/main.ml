(* The repository's benchmark. One run of one workload:

     main.exe --workload W --seed N --seconds S --trace 0|1

   sets up (repeatedly for at least 1.5 s, reporting the median), warms
   up untimed (one op; serve-stream: the reference solves and one
   round), then runs whole rounds of the workload's ops
   until S seconds have passed, checks the program's outputs, and prints
   one JSON line: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1. A traced run makes every op twice, untraced
   and then traced, and requires the same outcome and work counters from
   both.

     main.exe --workload W --seed N --repeat

   is the repeatability check: one round untraced, again from a fresh
   set-up, and traced; outcomes, costs and work counters must be equal
   op for op. For rule-sweep it also runs [Sweep.sweep] on the drawn
   windows and requires the entries and counters of the solves.

     main.exe --serve-references

   is the child process serve-stream's warm-up starts for its reference
   solves (Serve_stream.write_references).

   A failed check, or an exception the program raises, prints its
   reason on stderr and exits 1. See README.md. *)

open Harness

type 'c workload = {
  setup : seed:int -> unit -> 'c;
  warm_up : 'c -> unit;
  round : 'c -> int -> op list;
  traced_round : 'c -> Trace.t -> int -> op list * op list;
  verify : 'c -> unit;
  latency : op list -> op list;
  windows : 'c -> Inputs.windows;
  extras : 'c -> traced -> (string * float) list;
  repeat_check : 'c -> unit;
}

let rule_sweep =
  {
    setup = Rule_sweep.setup;
    warm_up = Rule_sweep.warm_up;
    round = Rule_sweep.round;
    traced_round = Rule_sweep.traced_round;
    verify = Rule_sweep.verify;
    latency = Rule_sweep.latency;
    windows = (fun c -> c.Rule_sweep.windows);
    extras = (fun _ _ -> []);
    repeat_check = Rule_sweep.same_as_sweep;
  }

let lagrangian_paper =
  {
    setup = Lagrangian_paper.setup;
    warm_up = Lagrangian_paper.warm_up;
    round = Lagrangian_paper.round;
    traced_round = Lagrangian_paper.traced_round;
    verify = Lagrangian_paper.verify;
    latency = Fun.id;
    windows = (fun c -> c.Lagrangian_paper.windows);
    extras =
      (fun c _ ->
        [ ("lagrangian.gap_mean_pct", Lagrangian_paper.gap_mean_pct c) ]);
    repeat_check = (fun _ -> ());
  }

let serve_stream =
  {
    setup = Serve_stream.setup;
    warm_up = Serve_stream.warm_up;
    round = Serve_stream.round;
    traced_round = Serve_stream.traced_round;
    verify = Serve_stream.verify;
    latency = Fun.id;
    windows = (fun c -> c.Serve_stream.windows);
    extras =
      (fun _ t ->
        let hit, miss = Serve_stream.hit_miss_p50_ms t.untraced in
        [ ("serve.hit_p50_ms", hit); ("serve.miss_p50_ms", miss) ]);
    repeat_check = (fun _ -> ());
  }

(* Per-layer metrics, the same names on every workload: a layer the
   workload does not call reads 0. Times and counts are per op unless
   the name says per call (the serve, cache and clipfile [_us]). *)
let per_layer (w : Inputs.windows) extras (t : traced) =
  let ms = ms_per_op t and n = per_op t and mw = mw_per_op t in
  let s name = Trace.seconds t.trace name in
  let ops = float_of_int (List.length t.traced) in
  let us_per_call name =
    match Trace.calls t.trace name with
    | 0 -> 0.0
    | c -> 1e6 *. s name /. float_of_int c
  in
  let extra name = Option.value ~default:0.0 (List.assoc_opt name extras) in
  let root_iters = Trace.counter t.trace "simplex.root_iters" in
  [
    ("design.generate_ms", 1e3 *. w.Inputs.generate_s, "ms");
    ("extract.windows_ms", 1e3 *. w.Inputs.extract_s, "ms");
    ("extract.windows", float_of_int w.Inputs.count, "count");
    ("graph.build_ms", ms "graph", "ms");
    ("graph.edges", n "graph.edges", "count");
    ("formulate.build_ms", ms "formulate", "ms");
    ("formulate.rows", n "formulate.rows", "count");
    ("formulate.nonzeros", n "formulate.nonzeros", "count");
    ("formulate.encode_ms", ms "encode", "ms");
    ("formulate.decode_ms", ms "decode", "ms");
    ("maze.route_ms", ms "maze", "ms");
    ("maze.rip_ups", n "maze.rip_ups", "count");
    ("simplex.root_ms", ms "simplex", "ms");
    ("simplex.root_iters", n "simplex.root_iters", "count");
    ( "simplex.us_per_iter",
      (if root_iters = 0.0 then 0.0 else 1e6 *. s "simplex" /. root_iters),
      "us" );
    ("simplex.bound_flips", n "simplex.bound_flips", "count");
    ("simplex.cold_ms", 1e3 *. n "simplex.cold_s", "ms");
    ("simplex.warm_ms", 1e3 *. n "simplex.warm_s", "ms");
    ("simplex.infeasible_ms", 1e3 *. n "simplex.infeasible_s", "ms");
    ("simplex.basis_remap_ms", ms "basis", "ms");
    ("milp.bnb_ms", Float.max 0.0 (ms "milp" -. ms "simplex"), "ms");
    ("milp.nodes", n "milp.nodes", "count");
    ("milp.node_iters", n "milp.node_iters", "count");
    ("drc.check_ms", ms "drc", "ms");
    ("drc.checks", float_of_int (Trace.calls t.trace "drc") /. ops, "count");
    ("sweep.fast_path_hits", n "sweep.fast_path_hits", "count");
    ("sweep.seeded_incumbents", n "sweep.seeded_incumbents", "count");
    ("sweep.warm_reused", n "sweep.warm_reused", "count");
    ("sweep.warm_repaired", n "sweep.warm_repaired", "count");
    ("lagrangian.solve_ms", ms "lagrangian", "ms");
    ("lagrangian.pricing_ms", 1e3 *. n "lagrangian.pricing_s", "ms");
    ( "lagrangian.other_ms",
      ms "lagrangian" -. (1e3 *. n "lagrangian.pricing_s"),
      "ms" );
    ("lagrangian.iterations", n "lagrangian.iterations", "count");
    ("lagrangian.rounding_attempts", n "lagrangian.rounding_attempts", "count");
    ("lagrangian.rip_ups", n "lagrangian.rip_ups", "count");
    ("lagrangian.gap_mean_pct", extra "lagrangian.gap_mean_pct", "%");
    ("serve.key_us", us_per_call "key", "us");
    ("serve.parse_us", us_per_call "parse", "us");
    ("clipfile.print_us", us_per_call "print", "us");
    ("cache.find_us", us_per_call "find", "us");
    ("cache.store_us", us_per_call "store", "us");
    ("cache.mem_hits", n "cache.mem_hits", "count");
    ("cache.disk_hits", n "cache.disk_hits", "count");
    ("cache.misses", n "cache.misses", "count");
    ("serve.hit_p50_ms", extra "serve.hit_p50_ms", "ms");
    ("serve.miss_p50_ms", extra "serve.miss_p50_ms", "ms");
    ("gc.minor_mw", n "gc.minor_words" /. 1e6, "Mw");
    ("gc.major_collections", n "gc.major_collections", "count");
    ("graph.alloc_mw", mw "graph", "Mw");
    ("formulate.alloc_mw", mw "formulate" +. mw "encode" +. mw "decode", "Mw");
    ("maze.alloc_mw", mw "maze", "Mw");
    ("simplex.alloc_mw", mw "simplex" +. mw "basis", "Mw");
    ("milp.alloc_mw", mw "milp", "Mw");
    ("drc.alloc_mw", mw "drc", "Mw");
    ("lagrangian.alloc_mw", mw "lagrangian", "Mw");
    ("serve.alloc_mw", mw "print" +. mw "parse" +. mw "key", "Mw");
    ("cache.alloc_mw", mw "find" +. mw "store", "Mw");
  ]
  @ trace_summary t

(* Every round makes the same ops, so each must repeat round 0. *)
let same_rounds rounds =
  match rounds with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i r -> same_ops ~what:(Printf.sprintf "round %d vs round 0" (i + 1)) first r)
      rest

let counts ops = (List.length ops, List.length (List.filter (fun o -> o.failed) ops))

let run (w : 'c workload) ~seed ~seconds ~trace =
  let setup_s, ctx = setup (w.setup ~seed) in
  w.warm_up ctx;
  if not trace then begin
    let rounds = rounds ~seconds (w.round ctx) in
    same_rounds rounds;
    w.verify ctx;
    let ops = List.concat rounds in
    let attempted, failed = counts ops in
    result_line ~attempted ~failed
      (end_to_end ~setup_s ~latency:(w.latency ops) ops)
  end
  else begin
    let tr = Trace.create () in
    let pairs = rounds ~seconds (w.traced_round ctx tr) in
    List.iter (fun (u, t) -> same_ops ~what:"traced vs untraced" u t) pairs;
    same_rounds (List.map fst pairs);
    w.verify ctx;
    let t =
      {
        trace = tr;
        untraced = List.concat_map fst pairs;
        traced = List.concat_map snd pairs;
      }
    in
    let attempted, failed = counts t.untraced in
    result_line ~attempted ~failed
      (per_layer (w.windows ctx) (w.extras ctx t) t)
  end

let repeat (w : 'c workload) ~seed =
  let once () =
    let ctx = w.setup ~seed () in
    w.warm_up ctx;
    (ctx, w.round ctx 0)
  in
  let ctx, a = once () in
  w.verify ctx;
  w.repeat_check ctx;
  let _, b = once () in
  same_ops ~what:"second run" a b;
  let ctx = w.setup ~seed () in
  w.warm_up ctx;
  let tr = Trace.create () in
  let u, t = w.traced_round ctx tr 0 in
  same_ops ~what:"traced run's untraced ops" a u;
  same_ops ~what:"traced run" a t;
  let attempted, failed = counts a in
  Printf.sprintf
    "repeat: %d ops (%d failed) in one round: outcomes and work counters \
     equal in two runs and in the traced run"
    attempted failed

let usage () =
  prerr_endline
    "usage: main.exe --workload rule-sweep|lagrangian-paper|serve-stream \
     --seed N (--seconds S --trace 0|1 | --repeat)";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let int_opt name =
    Option.map
      (fun v -> match int_of_string_opt v with Some i -> i | None -> usage ())
      (opt name args)
  in
  if List.mem "--serve-references" args then begin
    Serve_stream.write_references ();
    exit 0
  end;
  let seed = match int_opt "--seed" with Some s -> s | None -> usage () in
  let go w =
    if List.mem "--repeat" args then
      repeat w ~seed
    else
      let seconds =
        match Option.bind (opt "--seconds" args) float_of_string_opt with
        | Some s when s > 0.0 -> s
        | Some _ | None -> usage ()
      in
      let trace =
        match opt "--trace" args with
        | Some "0" -> false
        | Some "1" -> true
        | Some _ | None -> usage ()
      in
      run w ~seed ~seconds ~trace
  in
  match
    match opt "--workload" args with
    | Some "rule-sweep" -> go rule_sweep
    | Some "lagrangian-paper" -> go lagrangian_paper
    | Some "serve-stream" -> go serve_stream
    | Some _ | None -> usage ()
  with
  | line ->
    Serve_stream.cleanup ();
    print_endline line
  | exception Check_failed msg ->
    Serve_stream.cleanup ();
    prerr_endline ("check failed: " ^ msg);
    exit 1
  | exception e ->
    Serve_stream.cleanup ();
    prerr_endline ("failed: " ^ Printexc.to_string e);
    exit 1
