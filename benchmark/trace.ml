(* Spans and counters for the traced run.

   Every span wraps one call into a library's public function, made from
   the benchmark's own code; nothing inside the program is instrumented.
   A span records its wall time and the words the calling domain
   allocated during the call. Counters are plain named sums. The traced
   run divides both by the number of traced ops when it reports them. *)

type layer = { mutable s : float; mutable words : float; mutable calls : int }

type t = {
  layers : (string, layer) Hashtbl.t;
  counters : (string, float) Hashtbl.t;
}

let create () = { layers = Hashtbl.create 16; counters = Hashtbl.create 16 }

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
    let l = { s = 0.0; words = 0.0; calls = 0 } in
    Hashtbl.replace t.layers name l;
    l

let allocated_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let span t name f =
  let l = layer t name in
  let w0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    l.s <- l.s +. (Unix.gettimeofday () -. t0);
    l.words <- l.words +. (allocated_words () -. w0);
    l.calls <- l.calls + 1
  in
  Fun.protect ~finally:finish f

let add t name v =
  Hashtbl.replace t.counters name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counters name))

let count t name n = add t name (float_of_int n)
let counter t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counters name)

let seconds t name =
  match Hashtbl.find_opt t.layers name with Some l -> l.s | None -> 0.0

let words t name =
  match Hashtbl.find_opt t.layers name with Some l -> l.words | None -> 0.0

let calls t name =
  match Hashtbl.find_opt t.layers name with Some l -> l.calls | None -> 0

(* Summed wall of every span: the layers are called one after another,
   never nested, so the sum is the traced time the spans account for. *)
let total_seconds t = Hashtbl.fold (fun _ l acc -> acc +. l.s) t.layers 0.0
