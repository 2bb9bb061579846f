(* The exact solve, traced: the calls [Optrouter.route] makes in [Exact]
   mode, in the same order and with the same arguments, each wrapped in
   a span — Graph.build, the seed's Drc.check (the sweep's fast path),
   Formulate.build, Formulate.encode of the seed or of a Maze routing,
   Milp.solve, Formulate.decode and the Drc.check audit. The root
   relaxation is also solved on its own with Simplex, so the root LP gets
   a span of its own; its iteration count must equal the [root_lp_iters]
   Milp reports. *)

module Optrouter = Optrouter_core.Optrouter
module Formulate = Optrouter_core.Formulate
module Graph = Optrouter_grid.Graph
module Drc = Optrouter_grid.Drc
module Route = Optrouter_grid.Route
module Maze = Optrouter_maze.Maze
module Milp = Optrouter_ilp.Milp
module Simplex = Optrouter_ilp.Simplex
module Lp = Optrouter_ilp.Lp

let no_sizes = { Formulate.vars = 0; binaries = 0; rows = 0; nonzeros = 0 }

(* The heuristic incumbent [Optrouter.route_graph] asks for. *)
let maze_params =
  { Maze.default_params with Maze.restarts = 10; rip_up_rounds = 8 }

(* The root node of [Milp.solve]: the LP relaxation over the variables'
   own bounds from the caller's root basis, retried cold when the warm
   basis cannot be factorised. *)
let solve_root (params : Milp.params) lp basis =
  let inst = Simplex.Instance.create lp in
  let lower = Array.map (fun (v : Lp.var) -> v.Lp.lower) lp.Lp.vars in
  let upper = Array.map (fun (v : Lp.var) -> v.Lp.upper) lp.Lp.vars in
  let attempt basis =
    Simplex.Instance.solve
      ~params:
        {
          params.Milp.simplex with
          Simplex.Params.basis;
          lower = Some lower;
          upper = Some upper;
        }
      inst
  in
  match attempt basis with
  | r -> r
  | exception Simplex.Numerical_failure _ -> attempt None

let stats ?(sizes = no_sizes) ~seed_use ~start () =
  {
    Optrouter.sizes;
    nodes = 0;
    simplex_iterations = 0;
    root_lp_iters = 0;
    bound_flips = 0;
    warm_start = `Cold;
    root_basis = None;
    elapsed_s = Unix.gettimeofday () -. start;
    seed_use;
    solver_workers = 0;
    solver_steals = 0;
    solver_busy_s = 0.0;
    solver_wall_s = 0.0;
    dual_btran_saved = 0;
    lagrangian = None;
  }

let audit tr ~rules g sol =
  match Trace.span tr "drc" (fun () -> Drc.check ~rules g sol) with
  | [] -> sol
  | v :: _ ->
    raise
      (Optrouter.Drc_failure (Format.asprintf "%a" (Drc.pp_violation g) v))

let route tr ~(config : Optrouter.config) ?seed ?warm_basis ~tech ~rules clip
    =
  let start = Unix.gettimeofday () in
  let g =
    Trace.span tr "graph" (fun () ->
        Graph.build ~via_shapes:config.Optrouter.via_shapes
          ~single_vias:config.Optrouter.single_vias
          ~bidirectional:config.Optrouter.bidirectional ~tech ~rules clip)
  in
  Trace.count tr "graph.edges" (Graph.num_edges g);
  let seed = if config.Optrouter.seed_reuse then seed else None in
  let warm_basis = if config.Optrouter.seed_reuse then warm_basis else None in
  let fast =
    Option.bind seed (fun (sol : Route.solution) ->
        match Trace.span tr "drc" (fun () -> Drc.check ~rules g sol) with
        | [] ->
          Some
            {
              Route.routes = sol.Route.routes;
              metrics = Route.metrics_of g sol.Route.routes;
            }
        | _ :: _ -> None
        | exception _foreign_seed -> None)
  in
  match fast with
  | Some sol ->
    {
      Optrouter.verdict = Optrouter.Routed sol;
      stats = stats ~seed_use:Optrouter.Seed_fast_path ~start ();
    }
  | None ->
    let form =
      Trace.span tr "formulate" (fun () ->
          Formulate.build ~options:config.Optrouter.options ~rules g)
    in
    let sizes = Formulate.sizes form in
    Trace.count tr "formulate.rows" sizes.Formulate.rows;
    Trace.count tr "formulate.nonzeros" sizes.Formulate.nonzeros;
    let encode sol =
      Trace.span tr "encode" (fun () -> Formulate.encode form sol)
    in
    let seeded = Option.bind seed encode in
    let seed_use =
      match (seed, seeded) with
      | None, _ -> Optrouter.Seed_unused
      | Some _, Some _ -> Optrouter.Seed_incumbent
      | Some _, None -> Optrouter.Seed_rejected
    in
    let initial =
      match seeded with
      | Some _ -> seeded
      | None when not config.Optrouter.heuristic_incumbent -> None
      | None ->
        let m =
          Trace.span tr "maze" (fun () -> Maze.route ~params:maze_params ~rules g)
        in
        Trace.count tr "maze.rip_ups" m.Maze.rip_ups;
        Option.bind m.Maze.solution encode
    in
    let lp = Formulate.lp form in
    let root_basis, remap_patched =
      match warm_basis with
      | None -> (None, false)
      | Some assoc ->
        let b, fixup =
          Trace.span tr "basis" (fun () -> Simplex.Basis.of_assoc lp assoc)
        in
        (Some b, fixup = `Patched)
    in
    let milp = config.Optrouter.milp in
    let before = Trace.seconds tr "simplex" in
    let root =
      Trace.span tr "simplex" (fun () -> solve_root milp lp root_basis)
    in
    let root_class =
      match (root.Simplex.status, root.Simplex.warm) with
      | Simplex.Infeasible, _ -> "simplex.infeasible_s"
      | _, `Cold -> "simplex.cold_s"
      | _, (`Reused | `Repaired) -> "simplex.warm_s"
    in
    Trace.add tr root_class (Trace.seconds tr "simplex" -. before);
    let r =
      Trace.span tr "milp" (fun () ->
          Milp.solve ?initial ?root_basis ~params:milp lp)
    in
    if r.Milp.root_lp_iters <> root.Simplex.iterations then
      raise
        (Harness.Check_failed
           (Printf.sprintf "root LP: Simplex took %d iterations, Milp reports %d"
              root.Simplex.iterations r.Milp.root_lp_iters));
    Trace.count tr "simplex.root_iters" root.Simplex.iterations;
    Trace.count tr "simplex.bound_flips" root.Simplex.bound_flips;
    Trace.count tr "milp.nodes" r.Milp.nodes;
    Trace.count tr "milp.node_iters"
      (r.Milp.simplex_iterations - r.Milp.root_lp_iters);
    let warm_start =
      match r.Milp.root_warm with `Reused when remap_patched -> `Repaired | w -> w
    in
    let decode () =
      let sol =
        Trace.span tr "decode" (fun () -> Formulate.decode form r.Milp.x)
      in
      if config.Optrouter.drc_check then audit tr ~rules g sol else sol
    in
    let verdict =
      match r.Milp.outcome with
      | Milp.Proved_optimal -> Optrouter.Routed (decode ())
      | Milp.Infeasible -> Optrouter.Unroutable
      | Milp.Feasible -> Optrouter.Limit (Some (decode ()))
      | Milp.Unknown | Milp.Unbounded -> Optrouter.Limit None
    in
    {
      Optrouter.verdict;
      stats =
        {
          (stats ~sizes ~seed_use ~start ()) with
          Optrouter.nodes = r.Milp.nodes;
          simplex_iterations = r.Milp.simplex_iterations;
          root_lp_iters = r.Milp.root_lp_iters;
          bound_flips = r.Milp.root_bound_flips;
          warm_start;
          root_basis = Option.map (Simplex.Basis.to_assoc lp) r.Milp.root_basis;
          solver_workers = r.Milp.workers;
          solver_busy_s = r.Milp.solver_busy_s;
          solver_wall_s = r.Milp.solver_wall_s;
          dual_btran_saved = r.Milp.dual_btran_saved;
        };
    }
