(* Host-side measurement helpers shared by the workloads and the
   per-layer timings: wall clock, allocated words, RSS high-water mark,
   and order statistics. *)

let now = Unix.gettimeofday

(* Words allocated so far by this domain: minor + major - promoted, so
   a word promoted from the minor heap is counted once. *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Process RSS high-water mark in MiB (VmHWM from /proc/self/status). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted int array, q in [0, 100]. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "percentile: empty";
  let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

module Int_map = Map.Make (Int)

(* A fixed kernel of hash-table updates, map inserts and the allocation
   they make: a stand-in for the simulator's kind of work that never
   changes with the program. Timed between rounds, it tracks how fast
   the machine runs at that moment and shares no heap with the program. *)
let reference () =
  let t0 = now () in
  let h = Hashtbl.create 4096 in
  let m = ref Int_map.empty in
  for i = 0 to 100_000 do
    Hashtbl.replace h (i land 8191) (i, [ i; i + 1 ]);
    if i land 3 = 0 then m := Int_map.add (i land 16383) i !m
  done;
  ignore (Sys.opaque_identity (h, !m));
  now () -. t0

(* [reference ()] at the typical speed of the 2-vCPU VM the benchmark
   was tuned on. Dividing a round's reference time by it gives the
   round's slowdown: 1.2 means the machine ran 20 % slower than that. *)
let nominal_reference_s = 0.04
