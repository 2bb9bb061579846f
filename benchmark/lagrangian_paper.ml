(* lagrangian-paper: paper-size windows (7x10 tracks, 8 layers) routed
   under RULE1 by the Lagrangian decomposition, with its default
   parameters and no wall deadline, so the iterations and the outcome
   of every solve are fixed. No LP runs: Steiner pricing, rounding,
   repair, DRC and the Maze backstop do the work.

   The three windows of [Pools.lagrangian_failing] end without a routing
   on every run (a fault of the rounding); they count as failed ops. *)

module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Drc = Optrouter_grid.Drc
module Route = Optrouter_grid.Route
module Optrouter = Optrouter_core.Optrouter
module Milp = Optrouter_ilp.Milp
module Lagrangian = Optrouter_lagrangian.Lagrangian
open Harness

let rules = Rules.rule 1

let config =
  Optrouter.make_config ~solve_mode:Optrouter.Lagrangian
    ~milp:(Milp.make_params ~solver_jobs:1 ())
    ()

type solve = {
  tech : Tech.t;
  clip : Clip.t;
  result : Optrouter.result;
  expect_fail : bool;
}

type ctx = {
  windows : Inputs.windows;
  clips : (Tech.t * Clip.t * bool) list;  (** the round, in order *)
  mutable first : solve list;
}

let setup ~seed () =
  let windows = Inputs.paper_windows ~top:Pools.lagrangian_top in
  let clips =
    List.concat_map
      (fun (tech, clips) ->
        List.map
          (fun (c : Clip.t) ->
            (tech, c, List.mem c.Clip.c_name Pools.lagrangian_failing))
          clips)
      windows.Inputs.per_tech
  in
  let failing = List.filter (fun (_, _, f) -> f) clips in
  check
    (List.length failing = List.length Pools.lagrangian_failing)
    "%d of the named failing windows are among the top-ranked"
    (List.length failing);
  { windows; clips = Inputs.shuffle (Inputs.rng ~seed) clips; first = [] }

let lag (r : Optrouter.result) =
  match r.Optrouter.stats.Optrouter.lagrangian with
  | Some l -> l
  | None -> raise (Check_failed "no Lagrangian stats")

let op_of ~wall s =
  let l = lag s.result in
  let outcome =
    match s.result.Optrouter.verdict with
    | Optrouter.Near_optimal sol ->
      Printf.sprintf "near-optimal %d dual %.17g" sol.Route.metrics.Route.cost
        l.Optrouter.dual_bound
    | Optrouter.Unroutable -> "unroutable"
    | Optrouter.Limit _ -> "limit"
    | Optrouter.Routed _ -> "routed"
  in
  {
    key = s.clip.Clip.c_name;
    outcome;
    work =
      [
        ("iterations", l.Optrouter.lag_iterations);
        ("rounding_attempts", l.Optrouter.lag_rounds);
        ("rip_ups", l.Optrouter.lag_rip_ups);
      ];
    wall_s = wall;
    failed =
      (match s.result.Optrouter.verdict with
      | Optrouter.Near_optimal _ | Optrouter.Unroutable -> false
      | Optrouter.Limit _ | Optrouter.Routed _ -> true);
    solved = true;
  }

let solve_one (tech, clip, expect_fail) =
  let t0 = now () in
  let result = Optrouter.route ~config ~tech ~rules clip in
  ({ tech; clip; result; expect_fail }, now () -. t0)

let round ctx r =
  let solves = List.map solve_one ctx.clips in
  if r = 0 then ctx.first <- List.map fst solves;
  List.map (fun (s, wall) -> op_of ~wall s) solves

(* [Optrouter.route]'s decomposition path, traced: Graph.build, then
   Lagrangian.solve with the decomposition knobs the router overrides
   (one pricing worker, the MILP budget as deadline). *)
let traced_one tr (tech, clip, expect_fail) =
  let t0 = now () in
  let g =
    Trace.span tr "graph" (fun () ->
        Graph.build ~via_shapes:config.Optrouter.via_shapes
          ~single_vias:config.Optrouter.single_vias
          ~bidirectional:config.Optrouter.bidirectional ~tech ~rules clip)
  in
  Trace.count tr "graph.edges" (Graph.num_edges g);
  let params =
    {
      config.Optrouter.lagrangian_params with
      Lagrangian.jobs = config.Optrouter.milp.Milp.solver_jobs;
      time_limit_s = config.Optrouter.milp.Milp.time_limit_s;
    }
  in
  let r = Trace.span tr "lagrangian" (fun () -> Lagrangian.solve ~params ~rules g) in
  Trace.add tr "lagrangian.pricing_s" r.Lagrangian.busy_s;
  Trace.count tr "lagrangian.iterations" r.Lagrangian.iterations;
  Trace.count tr "lagrangian.rounding_attempts" r.Lagrangian.rounding_attempts;
  Trace.count tr "lagrangian.rip_ups" r.Lagrangian.rip_ups;
  let verdict =
    if r.Lagrangian.unreachable then Optrouter.Unroutable
    else
      match r.Lagrangian.solution with
      | Some sol -> Optrouter.Near_optimal sol
      | None -> Optrouter.Limit None
  in
  let stats =
    {
      (Exact.stats ~seed_use:Optrouter.Seed_unused ~start:t0 ()) with
      Optrouter.lagrangian =
        Some
          {
            Optrouter.lag_iterations = r.Lagrangian.iterations;
            dual_bound = r.Lagrangian.dual_bound;
            primal_cost =
              Option.map
                (fun (s : Route.solution) -> s.Route.metrics.Route.cost)
                r.Lagrangian.solution;
            lag_gap = r.Lagrangian.gap;
            multiplier_norm = r.Lagrangian.multiplier_norm;
            lag_busy_s = r.Lagrangian.busy_s;
            lag_wall_s = r.Lagrangian.wall_s;
            lag_rounds = r.Lagrangian.rounding_attempts;
            lag_rip_ups = r.Lagrangian.rip_ups;
            lag_exact_pricing = r.Lagrangian.exact_pricing;
          };
    }
  in
  ({ tech; clip; result = { Optrouter.verdict; stats }; expect_fail }, now () -. t0)

let traced_round ctx tr r =
  let pairs =
    List.map
      (fun c ->
        let u = solve_one c in
        let t = with_gc tr (fun () -> traced_one tr c) in
        (u, t))
      ctx.clips
  in
  if r = 0 then ctx.first <- List.map (fun ((s, _), _) -> s) pairs;
  ( List.map (fun ((s, wall), _) -> op_of ~wall s) pairs,
    List.map (fun (_, (s, wall)) -> op_of ~wall s) pairs )

(* Properties of the method, computed here:
   - each routing is DRC-clean (on a graph this code builds);
   - its cost, summed from the routed edges' graph costs, is the primal
     the solve reports;
   - the dual bound does not exceed the primal;
   - only the windows of the named fault end without a routing. *)
let verify ctx =
  List.iter
    (fun s ->
      let name = s.clip.Clip.c_name in
      let l = lag s.result in
      match s.result.Optrouter.verdict with
      | Optrouter.Near_optimal sol ->
        let g = Graph.build ~tech:s.tech ~rules s.clip in
        check (Drc.check ~rules g sol = []) "%s: routing fails DRC" name;
        let cost =
          Array.fold_left
            (fun acc (r : Route.net_route) ->
              List.fold_left
                (fun acc e -> acc + g.Graph.edges.(e).Graph.cost)
                acc
                (List.sort_uniq Int.compare r.Route.edges))
            0 sol.Route.routes
        in
        check
          (Some cost = l.Optrouter.primal_cost)
          "%s: routed edges cost %d, the solve reports %s" name cost
          (match l.Optrouter.primal_cost with
          | Some c -> string_of_int c
          | None -> "none");
        check
          (l.Optrouter.dual_bound <= float_of_int cost +. 1e-6)
          "%s: dual bound %g above primal %d" name l.Optrouter.dual_bound cost
      | Optrouter.Unroutable -> ()
      | Optrouter.Limit _ | Optrouter.Routed _ ->
        check s.expect_fail "%s: no routing, and not a window of the named fault"
          name)
    ctx.first


let warm_up ctx =
  match List.find_opt (fun (_, _, f) -> not f) ctx.clips with
  | Some c -> ignore (solve_one c)
  | None -> ()

(* Mean (primal - dual) / primal over the routed windows, in %. *)
let gap_mean_pct ctx =
  let gaps =
    List.filter_map (fun s -> (lag s.result).Optrouter.lag_gap) ctx.first
  in
  match gaps with
  | [] -> 0.0
  | _ -> 100.0 *. List.fold_left ( +. ) 0.0 gaps /. float_of_int (List.length gaps)
