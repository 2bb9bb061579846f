(* What every workload shares: the op record, the timed loop of whole
   rounds, the end-to-end metrics, and the one-line JSON result. *)

(* One timed operation. [key] names its input; [outcome] is the verdict
   and cost the program gave; [work] holds the deterministic work
   counters that must repeat exactly between two runs; [solved] marks an
   op that ran a solver, as opposed to one answered by reusing an earlier
   proof (a sweep fast path or a cache hit). *)
type op = {
  key : string;
  outcome : string;
  work : (string * int) list;
  wall_s : float;
  failed : bool;
  solved : bool;
}

let now = Unix.gettimeofday

(* Fails the run: the result line is never printed. *)
exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* [rounds ~seconds f] is [f 0; f 1; ...], stopping after the first
   round that ends [seconds] or more after the start. A run is always
   whole rounds, so the share of failed ops in it is the share of one
   round. *)
let rounds ~seconds f =
  let t0 = now () in
  let rec go r acc =
    let acc = f r :: acc in
    if now () -. t0 >= seconds then List.rev acc else go (r + 1) acc
  in
  go 0 []

let median xs =
  match xs with
  | [] -> invalid_arg "median"
  | _ -> Optrouter_report.Report.Stats.percentile 50.0 (Array.of_list xs)

let percentile_ms p ops =
  match ops with
  | [] -> raise (Check_failed "no op to take a latency percentile of")
  | _ ->
    1e3
    *. Optrouter_report.Report.Stats.percentile p
         (Array.of_list (List.map (fun o -> o.wall_s) ops))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* [latency] is the population the percentiles are taken over; each
   workload says which (see README.md). *)
let end_to_end ~setup_s ~latency ops =
  let busy = List.fold_left (fun acc o -> acc +. o.wall_s) 0.0 ops in
  [
    ("setup_s", setup_s, "s");
    ("ops_per_s", float_of_int (List.length ops) /. busy, "1/s");
    ("op_p50_ms", percentile_ms 50.0 latency, "ms");
    ("op_p90_ms", percentile_ms 90.0 latency, "ms");
    ("peak_heap_mb", peak_heap_mb (), "MB");
  ]

(* Shortest decimal that reads back as the same float. *)
let number v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* Printed only when every check passed; a failed check exits 1
   instead. *)
let result_line ~attempted ~failed metrics =
  let metric (name, v, unit) =
    if not (Float.is_finite v) then
      raise (Check_failed (Printf.sprintf "metric %s is not finite" name));
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  Printf.sprintf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    attempted failed
    (String.concat ", " (List.map metric metrics))

(* Set-up is repeated, each time from a compacted heap, until at least
   1.5 s and three repetitions have passed; the median is reported. One
   set-up takes tens of milliseconds, so a fixed handful of repetitions
   sees only a moment of the host's noise; a longer window did not help
   further (README.md, Host noise). The last repetition's value is used
   by the run. *)
let setup f =
  let t0 = now () in
  let rec go n times last =
    if n >= 3 && now () -. t0 >= 1.5 then (median times, Option.get last)
    else
      let () = Gc.compact () in
      let t = now () in
      let v = f () in
      go (n + 1) ((now () -. t) :: times) (Some v)
  in
  go 0 [] None

(* Two runs of the same rounds must give the same ops: same inputs in the
   same order, same outcomes, same work counters. Wall times differ. *)
let same_ops ~what a b =
  check
    (List.length a = List.length b)
    "%s: %d ops against %d" what (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      check (x.key = y.key) "%s: op %s against %s" what x.key y.key;
      check (x.outcome = y.outcome) "%s: %s gave %s, then %s" what x.key
        x.outcome y.outcome;
      check (x.work = y.work) "%s: %s work counters differ (%s / %s)" what x.key
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) x.work))
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) y.work));
      check (x.failed = y.failed) "%s: %s failed in one run only" what x.key)
    a b

(* Runs [f] as one traced op, adding its minor words and major
   collections to the trace. *)
let with_gc tr f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  Trace.add tr "gc.minor_words" (s1.Gc.minor_words -. s0.Gc.minor_words);
  Trace.count tr "gc.major_collections"
    (s1.Gc.major_collections - s0.Gc.major_collections);
  v

(* Traced-run summary: per-op means of the layer spans and counters. *)
type traced = {
  trace : Trace.t;
  untraced : op list;
  traced : op list;
}

let per_op t name = Trace.counter t.trace name /. float_of_int (List.length t.traced)
let ms_per_op t name = 1e3 *. Trace.seconds t.trace name /. float_of_int (List.length t.traced)

let mw_per_op t name =
  Trace.words t.trace name /. 1e6 /. float_of_int (List.length t.traced)

(* Share of the traced ops' wall the spans account for, and what tracing
   cost: traced wall over untraced wall of the same ops, minus one. *)
let trace_summary t =
  let wall ops = List.fold_left (fun acc o -> acc +. o.wall_s) 0.0 ops in
  let traced = wall t.traced and untraced = wall t.untraced in
  [
    ("trace.span_share_pct", 100.0 *. Trace.total_seconds t.trace /. traced, "%");
    ("trace.overhead_pct", 100.0 *. ((traced /. untraced) -. 1.0), "%");
  ]
