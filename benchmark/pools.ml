(* The windows every run routes, all from Figure 10's designs
   ([Inputs.designs]). They are the same for every seed; the seed orders
   them (and, in serve-stream, the requests). Drawing windows from a
   larger pool instead moved ops_per_s by 15% (lagrangian-paper), 18%
   (rule-sweep) and 51% (serve-stream) between seeds, far more than the
   bounds; see README.md. Times in the comments are from one calibration
   run on a 2-core x86-64 host. *)

module Tech = Optrouter_tech.Tech

(* Reduced 5x5-track, 4-layer windows from below the top-ranked set
   (the lower half by pin cost). Every (window, rule) pair of every rule
   [Experiments.rules_for] gives the tech proves its verdict in under a
   second with no budget. Per tech, one window with Unroutable proofs
   under the via restrictions and one with multi-node branch and bound;
   the times are whole-window sweeps (baseline and every rule). The
   windows screened out, and why, are listed in README.md. *)
let reduced =
  [
    (* 2.07 s; 7 Unroutable proofs *)
    (Tech.n28_12t, "AES-N28-12T-u95@110_35");
    (* 1.76 s; 3-node branch and bound *)
    (Tech.n28_12t, "AES-N28-12T-u90@25_40");
    (* 2.31 s; 7 Unroutable proofs *)
    (Tech.n28_8t, "M0-N28-8T-u95@55_100");
    (* 3.50 s; 5-node branch and bound *)
    (Tech.n28_8t, "M0-N28-8T-u95@70_65");
    (* 0.86 s; 3 Unroutable proofs *)
    (Tech.n7_9t, "AES-N7-9T-u95@0_90");
    (* 1.25 s; 7-node branch and bound *)
    (Tech.n7_9t, "M0-N7-9T-u90@35_65");
  ]

(* The branch-and-bound fault kept as a failed op: RULE2 on this window,
   re-solved from its RULE1 baseline's routing and root basis. The warm
   root takes 14 simplex iterations, but the third node's child LP, one
   bound change away from its parent, takes 4,816; with no budget the
   pair proves its optimum in 7 nodes and 5,028 iterations (2.5 s). The
   rule-sweep solves it with every LP capped at [bnb_fault_lp_iters]
   iterations, where a re-solve after one bound change should need a
   small share of that (the window's whole cold RULE1 root takes 1,658),
   so it ends in [Limit] at the third node on every run; cheap child
   re-solves should let it prove. Its RULE1 baseline is a
   proved op of the same round. *)
let bnb_fault = (Tech.n28_8t, "M0-N28-8T-u90@75_95", 2)
let bnb_fault_lp_iters = 1_000

(* Paper-size windows: the [lagrangian_top] top-ranked per tech, all
   of them in every round, in an order drawn from the seed. *)
let lagrangian_top = 20

(* The three top-ranked N7-9T windows (8-9 nets each) the decomposition
   and its Maze backstop neither route nor prove unroutable: every solve
   ends in [Limit None]. *)
let lagrangian_failing =
  [ "M0-N7-9T-u95@56_60"; "AES-N7-9T-u90@21_90"; "M0-N7-9T-u90@42_80" ]
