(* rule-sweep: the Figure-10 sweep of a clip — the RULE1 baseline, then
   every rule the tech is evaluated under, each re-solved from the
   baseline's routing and root basis — over the windows of
   [Pools.reduced], in an order drawn from the seed.

   The ops are the solves [Sweep.sweep] makes, made here through the
   same call ([Optrouter.route] with [Sweep.baseline_config] for the
   baseline, then [?seed] and [?warm_basis] from it), so each solve's
   verdict, routing, stats and latency can be seen and checked. The
   repeat check runs [Sweep.sweep] itself on the same clips and requires
   the same entries and counters.

   Each round ends with the kept branch-and-bound fault ([Pools.bnb_fault]):
   the window's RULE1 baseline, then its one rule under an LP iteration
   cap. That rule solve is the workload's only failed op. *)

module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Drc = Optrouter_grid.Drc
module Route = Optrouter_grid.Route
module Optrouter = Optrouter_core.Optrouter
module Experiments = Optrouter_eval.Experiments
module Sweep = Optrouter_eval.Sweep
module Milp = Optrouter_ilp.Milp
module Maze = Optrouter_maze.Maze
module Lagrangian = Optrouter_lagrangian.Lagrangian
open Harness

(* One worker, no wall-clock budget: every pool pair proves its verdict
   well inside the node cap, so verdicts and work counters repeat. *)
let config =
  Optrouter.make_config
    ~milp:(Milp.make_params ~max_nodes:50_000 ~solver_jobs:1 ())
    ()

type solve = { rules : Rules.t; result : Optrouter.result; wall : float }

(* The budget the fault pair reaches on every run: every LP of the solve
   capped at [Pools.bnb_fault_lp_iters] simplex iterations. *)
let fault_config =
  Optrouter.make_config
    ~milp:
      (Milp.make_params ~max_nodes:50_000 ~solver_jobs:1
         ~simplex:
           (Optrouter_ilp.Simplex.make_params
              ~max_iters:Pools.bnb_fault_lp_iters ())
         ())
    ()

type clip_sweep = {
  tech : Tech.t;
  clip : Clip.t;
  baseline : solve;
  rule_solves : solve list;
}

type ctx = {
  windows : Inputs.windows;
  clips : (Tech.t * Clip.t) list;  (** in sweep order *)
  fault : Tech.t * Clip.t;
  mutable first : clip_sweep list;  (** round 0, kept for the checks *)
}

let setup ~seed () =
  let windows = Inputs.reduced_windows () in
  let st = Inputs.rng ~seed in
  let tech, name, _ = Pools.bnb_fault in
  {
    windows;
    clips = Inputs.shuffle st (Inputs.fixed windows Pools.reduced);
    fault = (tech, Inputs.find windows tech name);
    first = [];
  }

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

type route =
  config:Optrouter.config ->
  ?seed:Route.solution ->
  ?warm_basis:(string * Optrouter_ilp.Simplex.vstat) list ->
  tech:Tech.t ->
  rules:Rules.t ->
  Clip.t ->
  Optrouter.result

let untraced : route =
 fun ~config ?seed ?warm_basis ~tech ~rules clip ->
  Optrouter.route ~config ?seed ?warm_basis ~tech ~rules clip

(* [Sweep.clip_deltas]'s serial order: the baseline under the tripled
   baseline budget, then each of [rules] (by default every rule of the
   tech) under [rule_config], seeded with the baseline's routing and
   warm-started from its root basis. *)
let sweep_clip (route : route) ?rules ?(rule_config = config) (tech, clip) =
  let base_rules = Rules.rule 1 in
  let result, wall =
    timed (fun () ->
        route ~config:(Sweep.baseline_config (Some config)) ~tech
          ~rules:base_rules clip)
  in
  let baseline = { rules = base_rules; result; wall } in
  let rule_solves =
    match result.Optrouter.verdict with
    | Optrouter.Routed base ->
      let warm_basis = result.Optrouter.stats.Optrouter.root_basis in
      List.map
        (fun rules ->
          let result, wall =
            timed (fun () ->
                route ~config:rule_config ~seed:base ?warm_basis ~tech ~rules clip)
          in
          { rules; result; wall })
        (Option.value rules ~default:(Experiments.rules_for tech))
    | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ ->
      (* Sweep drops the clip; the screened pool never does. *)
      raise
        (Check_failed
           (Printf.sprintf "%s: RULE1 baseline not proved" clip.Clip.c_name))
  in
  { tech; clip; baseline; rule_solves }

let verdict_text (r : Optrouter.result) =
  match r.Optrouter.verdict with
  | Optrouter.Routed s -> Printf.sprintf "routed %d" s.Route.metrics.Route.cost
  | Optrouter.Unroutable -> "unroutable"
  | Optrouter.Limit _ -> "limit"
  | Optrouter.Near_optimal s ->
    Printf.sprintf "near-optimal %d" s.Route.metrics.Route.cost

let seed_use_code = function
  | Optrouter.Seed_unused -> 0
  | Optrouter.Seed_fast_path -> 1
  | Optrouter.Seed_incumbent -> 2
  | Optrouter.Seed_rejected -> 3

let warm_code = function `Cold -> 0 | `Reused -> 1 | `Repaired -> 2

let op_of (cs : clip_sweep) (s : solve) =
  let st = s.result.Optrouter.stats in
  {
    key = cs.clip.Clip.c_name ^ "/" ^ s.rules.Rules.name;
    outcome = verdict_text s.result;
    work =
      [
        ("nodes", st.Optrouter.nodes);
        ("simplex_iterations", st.Optrouter.simplex_iterations);
        ("root_lp_iters", st.Optrouter.root_lp_iters);
        ("bound_flips", st.Optrouter.bound_flips);
        ("seed_use", seed_use_code st.Optrouter.seed_use);
        ("warm_start", warm_code st.Optrouter.warm_start);
      ];
    wall_s = s.wall;
    failed =
      (match s.result.Optrouter.verdict with
      | Optrouter.Routed _ | Optrouter.Unroutable -> false
      | Optrouter.Limit _ | Optrouter.Near_optimal _ -> true);
    solved = st.Optrouter.seed_use <> Optrouter.Seed_fast_path;
  }

let ops_of cs = List.map (op_of cs) (cs.baseline :: cs.rule_solves)

(* The round's sweeps: the pool's windows in their seeded order, then the
   fault pair. *)
let sweeps (route : route) ctx =
  let _, _, rule = Pools.bnb_fault in
  List.map (fun c () -> sweep_clip route c) ctx.clips
  @ [
      (fun () ->
        sweep_clip route ~rules:[ Rules.rule rule ] ~rule_config:fault_config
          ctx.fault);
    ]

let is_fault (cs : clip_sweep) (s : solve) =
  let _, name, rule = Pools.bnb_fault in
  cs.clip.Clip.c_name = name && s.rules.Rules.name = (Rules.rule rule).Rules.name

let round ctx r =
  let sweeps = List.map (fun f -> f ()) (sweeps untraced ctx) in
  if r = 0 then ctx.first <- sweeps;
  List.concat_map ops_of sweeps

let count_reuse tr (cs : clip_sweep) =
  List.iter
    (fun s ->
      let st = s.result.Optrouter.stats in
      (match st.Optrouter.seed_use with
      | Optrouter.Seed_fast_path -> Trace.count tr "sweep.fast_path_hits" 1
      | Optrouter.Seed_incumbent -> Trace.count tr "sweep.seeded_incumbents" 1
      | Optrouter.Seed_unused | Optrouter.Seed_rejected -> ());
      match st.Optrouter.warm_start with
      | `Reused -> Trace.count tr "sweep.warm_reused" 1
      | `Repaired -> Trace.count tr "sweep.warm_repaired" 1
      | `Cold -> ())
    (cs.baseline :: cs.rule_solves)

let traced_round ctx tr r =
  let pairs =
    List.map2
      (fun u t ->
        let u = u () in
        let t = with_gc tr t in
        count_reuse tr t;
        (u, t))
      (sweeps untraced ctx) (sweeps (Exact.route tr) ctx)
  in
  if r = 0 then ctx.first <- List.map fst pairs;
  ( List.concat_map (fun (u, _) -> ops_of u) pairs,
    List.concat_map (fun (_, t) -> ops_of t) pairs )

(* Properties of the method, computed here from the routings:
   - every routing is DRC-clean under its own rules (re-checked on a
     graph this code builds);
   - rules only add constraints, so no Δ is negative, and a fast-path
     answer (the baseline re-checked clean) has Δ = 0;
   - the RULE1 optimum lies between the Lagrangian dual bound and the
     cost of the heuristic Maze routing of the same clip. *)
let verify ctx =
  List.iter
    (fun cs ->
      let name = cs.clip.Clip.c_name in
      let drc_clean (s : solve) (sol : Route.solution) =
        let g = Graph.build ~tech:cs.tech ~rules:s.rules cs.clip in
        check
          (Drc.check ~rules:s.rules g sol = [])
          "%s/%s: routing fails DRC" name s.rules.Rules.name
      in
      let base_cost =
        match cs.baseline.result.Optrouter.verdict with
        | Optrouter.Routed sol ->
          drc_clean cs.baseline sol;
          sol.Route.metrics.Route.cost
        | _ -> raise (Check_failed (name ^ ": baseline not routed"))
      in
      List.iter
        (fun s ->
          match s.result.Optrouter.verdict with
          | Optrouter.Routed sol ->
            drc_clean s sol;
            let delta = sol.Route.metrics.Route.cost - base_cost in
            check (delta >= 0) "%s/%s: Δ = %d < 0" name s.rules.Rules.name delta;
            if s.result.Optrouter.stats.Optrouter.seed_use = Optrouter.Seed_fast_path
            then
              check (delta = 0) "%s/%s: fast path with Δ = %d" name
                s.rules.Rules.name delta
          | Optrouter.Unroutable -> ()
          | Optrouter.Limit incumbent when is_fault cs s ->
            (* The kept fault: no proof, but an incumbent must still be
               clean and no cheaper than the unconstrained optimum. *)
            Option.iter
              (fun (sol : Route.solution) ->
                drc_clean s sol;
                check
                  (sol.Route.metrics.Route.cost >= base_cost)
                  "%s/%s: incumbent below the RULE1 optimum" name
                  s.rules.Rules.name)
              incumbent
          | Optrouter.Limit _ | Optrouter.Near_optimal _ ->
            raise
              (Check_failed
                 (Printf.sprintf "%s/%s: no proof (%s)" name s.rules.Rules.name
                    (verdict_text s.result))))
        cs.rule_solves;
      let rules = Rules.rule 1 in
      let g = Graph.build ~tech:cs.tech ~rules cs.clip in
      let dual =
        (Lagrangian.solve ~params:(Lagrangian.make_params ~jobs:1 ()) ~rules g)
          .Lagrangian.dual_bound
      in
      check
        (dual <= float_of_int base_cost +. 1e-6)
        "%s: Lagrangian dual bound %g above the RULE1 optimum %d" name dual
        base_cost;
      match (Maze.route ~rules g).Maze.solution with
      | Some m ->
        check
          (m.Route.metrics.Route.cost >= base_cost)
          "%s: Maze routing costs %d, below the RULE1 optimum %d" name
          m.Route.metrics.Route.cost base_cost
      | None -> ())
    ctx.first

(* Fast-path answers are left out of the latency percentiles: they take
   about a millisecond, they are over 40% of the ops, and a median that
   sits on the boundary between them and the ILP solves is not steady.
   They count in ops_per_s and in sweep.fast_path_hits. *)
let latency ops = List.filter (fun o -> o.solved) ops

let warm_up ctx =
  match ctx.clips with
  | (tech, clip) :: _ -> ignore (Optrouter.route ~config ~tech ~rules:(Rules.rule 1) clip)
  | [] -> ()

(* [Sweep.sweep] on the same windows must give the entries and the
   telemetry counters of the solves above. *)
let same_as_sweep ctx =
  let by_tech =
    List.filter_map
      (fun tech ->
        match List.filter (fun (t, _) -> t == tech) ctx.clips with
        | [] -> None
        | l -> Some (tech, List.map snd l))
      Inputs.techs
  in
  List.iter
    (fun (tech, clips) ->
      let tel = ref Sweep.empty_telemetry in
      let entries =
        Sweep.sweep ~config ~telemetry:tel ~tech
          ~rules:(Experiments.rules_for tech) clips
      in
      let mine = List.filter (fun cs -> cs.tech == tech) ctx.first in
      let mine =
        List.map (fun (c : Clip.t) -> List.find (fun cs -> cs.clip == c) mine) clips
      in
      let expected =
        List.concat_map
          (fun cs ->
            let base = cs.baseline.result in
            let base_cost = Option.get (Optrouter.cost_of base) in
            List.map
              (fun s ->
                let delta =
                  match s.result.Optrouter.verdict with
                  | Optrouter.Routed sol -> Sweep.Delta (sol.Route.metrics.Route.cost - base_cost)
                  | Optrouter.Unroutable -> Sweep.Infeasible
                  | Optrouter.Limit _ | Optrouter.Near_optimal _ -> Sweep.Limit
                in
                {
                  Sweep.clip_name = cs.clip.Clip.c_name;
                  rule_name = s.rules.Rules.name;
                  delta;
                  cost = Optrouter.cost_of s.result;
                  base_cost;
                })
              cs.rule_solves)
          mine
      in
      check (entries = expected) "%s: Sweep.sweep entries differ" tech.Tech.name;
      let solves = List.concat_map (fun cs -> cs.baseline :: cs.rule_solves) mine in
      let sum f = List.fold_left (fun acc s -> acc + f s.result.Optrouter.stats) 0 solves in
      let count p = sum (fun st -> if p st then 1 else 0) in
      let t = !tel in
      let pairs =
        [
          ("solves", t.Sweep.solves, List.length solves);
          ( "fast_path_hits",
            t.Sweep.fast_path_hits,
            count (fun st -> st.Optrouter.seed_use = Optrouter.Seed_fast_path) );
          ( "seeded_incumbents",
            t.Sweep.seeded_incumbents,
            count (fun st -> st.Optrouter.seed_use = Optrouter.Seed_incumbent) );
          ("nodes", t.Sweep.nodes, sum (fun st -> st.Optrouter.nodes));
          ( "simplex_iterations",
            t.Sweep.simplex_iterations,
            sum (fun st -> st.Optrouter.simplex_iterations) );
          ("root_lp_iters", t.Sweep.root_lp_iters, sum (fun st -> st.Optrouter.root_lp_iters));
          ("bound_flips", t.Sweep.bound_flips, sum (fun st -> st.Optrouter.bound_flips));
          ( "infeasible",
            t.Sweep.infeasible,
            List.length
              (List.filter
                 (fun s -> s.result.Optrouter.verdict = Optrouter.Unroutable)
                 solves) );
          ( "warm_reused",
            t.Sweep.warm_reused,
            count (fun st -> st.Optrouter.warm_start = `Reused) );
          ( "warm_repaired",
            t.Sweep.warm_repaired,
            count (fun st -> st.Optrouter.warm_start = `Repaired) );
        ]
      in
      List.iter
        (fun (name, theirs, ours) ->
          check (theirs = ours) "%s: Sweep.sweep %s = %d, the solves here %d"
            tech.Tech.name name theirs ours)
        pairs)
    by_tech
