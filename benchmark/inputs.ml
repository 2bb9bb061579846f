(* Workload inputs: Figure 10's designs, the windows tiled from them, and
   the seeded orders a run puts them in. *)

module Tech = Optrouter_tech.Tech
module Clip = Optrouter_grid.Clip
module Design = Optrouter_design.Design
module Extract = Optrouter_clips.Extract
module Experiments = Optrouter_eval.Experiments

let techs = [ Tech.n28_12t; Tech.n28_8t; Tech.n7_9t ]

(* The designs every committed Figure-10 result and both named faults
   come from: AES and M0 per Table 2, instance counts scaled down, one
   design per utilisation, seeded from the figure's seed. *)
let designs tech =
  let p = Experiments.default_fig10_params in
  List.concat_map
    (fun profile ->
      List.mapi
        (fun i util ->
          Design.generate ~seed:(p.Experiments.seed + i)
            (Experiments.scaled_profile p.Experiments.instance_scale profile)
            ~util tech)
        p.Experiments.utils)
    [ Design.aes; Design.m0 ]

type windows = {
  per_tech : (Tech.t * Clip.t list) list;
  generate_s : float;  (** design generation, all techs *)
  extract_s : float;  (** window extraction (and ranking), all techs *)
  count : int;  (** windows extracted *)
}

(* [windows ~extract] generates each tech's designs and turns them into
   clips with [extract]. *)
let windows ~extract =
  let generate_s = ref 0.0 and extract_s = ref 0.0 in
  let per_tech =
    List.map
      (fun tech ->
        let t0 = Unix.gettimeofday () in
        let ds = designs tech in
        let t1 = Unix.gettimeofday () in
        let clips = extract tech ds in
        let t2 = Unix.gettimeofday () in
        generate_s := !generate_s +. (t1 -. t0);
        extract_s := !extract_s +. (t2 -. t1);
        (tech, clips))
      techs
  in
  {
    per_tech;
    generate_s = !generate_s;
    extract_s = !extract_s;
    count = List.fold_left (fun acc (_, cs) -> acc + List.length cs) 0 per_tech;
  }

let reduced_windows () =
  windows ~extract:(fun _ ds -> List.concat_map (Extract.windows Extract.reduced_params) ds)

(* The top-ranked paper-size windows of each tech. *)
let paper_windows ~top =
  windows ~extract:(fun tech ds ->
      List.map fst
        (Extract.top_k top
           (List.concat_map (Extract.windows (Extract.paper_params tech)) ds)))

let find w tech name =
  let clips = List.assq tech w.per_tech in
  match List.find_opt (fun (c : Clip.t) -> c.Clip.c_name = name) clips with
  | Some c -> c
  | None ->
    raise
      (Harness.Check_failed
         (Printf.sprintf "%s: window %s is not among the %d extracted"
            tech.Tech.name name (List.length clips)))

let rng ~seed = Random.State.make [| seed |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let fixed w names = List.map (fun (tech, name) -> (tech, find w tech name)) names
