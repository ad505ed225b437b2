(* perfbench: the repo's benchmark. Usage:

     main.exe --workload invoke|faceverify|pd --seed N --seconds S --trace 0|1

   --trace 0 runs fresh rounds of the workload (Round), each in its own
   process, until the measured phases have taken S host seconds and
   every input set has run once, then reports the end-to-end metrics.
   --trace 1 runs untraced rounds for S/2 seconds and one traced round,
   times each layer's public entry points (Layers) and reports the
   per-layer metrics. Both check every output and print, as the last
   line of stdout, one JSON object {correct, attempted, failed, metrics};
   on any mismatch they exit 1. See perfbench/README.md. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0

let usage =
  "main.exe --workload invoke|faceverify|pd --seed N --seconds S --trace 0|1"

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_int seconds, "S host seconds to measure");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
  ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* A run draws [input_sets] independent input sets from its seed and
   pools their simulated results, so the simulated metrics rest on
   [input_sets] times the samples of one round. *)
let input_sets = 4

let sub_seed j = Hashtbl.hash (!seed, j)

let host_s (r : Round.t) = r.Round.open_host_s +. r.Round.closed_host_s

(* Rounds cycle over the input sets until [budget] host seconds of
   measured phases and at least one round per set have run. A repeated
   set must reproduce its first round's simulated results exactly. Each
   round comes with the machine's slowdown while it ran: the mean of the
   reference times just before and just after it, over the nominal. The
   reference runs in a process of its own too, so its garbage never
   reaches a round. *)
let rounds w ~budget =
  let rec go acc j spent ref0 =
    if spent >= budget && j >= input_sets then List.rev acc
    else
      let r = Round.run w ~seed:(sub_seed (j mod input_sets)) in
      let ref1 = Round.in_child Common.reference in
      let slowdown = (ref0 +. ref1) /. 2. /. Common.nominal_reference_s in
      Printf.eprintf "round %d (input set %d): %.1f req/s, slowdown %.3f, set-up %.4f s\n%!" j
        (j mod input_sets)
        (float_of_int r.Round.attempted /. host_s r)
        slowdown r.Round.setup_s;
      (* only the first round of each set feeds the pooled latencies;
         dropping the others' keeps this process, which every round
         process starts from, the same size throughout *)
      let r = if j < input_sets then r else { r with Round.lat = [||]; ttft = [||] } in
      go ((r, slowdown) :: acc) (j + 1) (spent +. host_s r) ref1
  in
  (* the first reference process runs cold; discard its time *)
  ignore (Round.in_child Common.reference);
  go [] 0 0. (Round.in_child Common.reference)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* The first [input_sets] rounds, after checking every round's outputs
   and that repeated input sets reproduced their simulated results. *)
let check_rounds (rs : Round.t list) =
  let first = Array.of_list (List.filteri (fun i _ -> i < input_sets) rs) in
  let problems =
    List.concat_map (fun r -> r.Round.mismatches) rs
    @ List.concat
        (List.mapi
           (fun j r ->
             if r.Round.digest = first.(j mod input_sets).Round.digest then []
             else [ Printf.sprintf "round %d did not reproduce input set %d" j (j mod input_sets) ])
           rs)
  in
  List.iter (fun p -> Printf.printf "MISMATCH %s\n" p) problems;
  let digest =
    Digest.to_hex
      (Digest.string (String.concat "" (Array.to_list (Array.map (fun r -> r.Round.digest) first))))
  in
  Printf.printf "digest %s (%d rounds)\n" digest (List.length rs);
  (problems = [], Array.to_list first)

let pooled f sets =
  let a = Array.concat (List.map f sets) in
  Array.sort compare a;
  a

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let end_to_end (w : Workloads.t) =
  let rsd = rounds w ~budget:(float_of_int !seconds) in
  let rs = List.map fst rsd in
  let correct, sets = check_rounds rs in
  let lat = pooled (fun r -> r.Round.lat) sets in
  let ttft = pooled (fun r -> r.Round.ttft) sets in
  let med f = Common.median (List.map f rs) in
  let attempted = sum (fun r -> r.Round.attempted) rs in
  let ok = sum (fun r -> r.Round.ok) rs in
  let us ns = float_of_int ns /. 1e3 in
  let metrics =
    [
      m "sim_capacity_rps" "req/sim_s"
        (float_of_int (sum (fun r -> r.Round.closed_ok) sets)
        /. Fractos_sim.Time.to_s_f (sum (fun r -> r.Round.closed_ns) sets));
      m "sim_p50_us" "sim_us" (us (Common.percentile lat 50.));
      m "sim_p99_us" "sim_us" (us (Common.percentile lat 99.));
      m "sim_ttft_p99_us" "sim_us" (us (Common.percentile ttft 99.));
      m "success_ratio" "fraction" (float_of_int ok /. float_of_int attempted);
      (* at nominal machine speed; see Common.reference *)
      m "host_reqs_per_s" "req/s"
        (Common.median
           (List.map (fun (r, slowdown) -> float_of_int r.Round.attempted /. host_s r *. slowdown) rsd));
      m "alloc_words_per_req" "words"
        (med (fun r -> r.Round.words /. float_of_int r.Round.attempted));
      m "peak_rss_mb" "MiB" (med (fun r -> r.Round.peak_rss_mb));
      m "setup_s" "s" (med (fun r -> r.Round.setup_s));
    ]
  in
  (correct, attempted, attempted - ok, metrics)

(* Each layer's cost, timed through its public entry points at the
   workload's shapes, with per-request operation counts from the
   untraced rounds and the tax breakdown of one traced round. Every row
   names the end-to-end metric and workload it should move;
   perfbench/README.md explains each one. *)
let per_layer (w : Workloads.t) =
  let rsd = rounds w ~budget:(float_of_int !seconds /. 2.) in
  let rs = List.map fst rsd in
  let correct, sets = check_rounds rs in
  let base = List.hd sets in
  (* the same input set again, traced: spans must not move simulated time *)
  let traced, shares = Round.run_traced w ~seed:(sub_seed 0) in
  let traced_ok = traced.Round.digest = base.Round.digest && traced.Round.mismatches = [] in
  if not traced_ok then print_endline "MISMATCH tracing changed the simulated results";
  let set0 = List.filteri (fun j _ -> j mod input_sets = 0) rs in
  let trace_overhead =
    traced.Round.open_host_s /. Common.median (List.map (fun r -> r.Round.open_host_s) set0)
  in
  let med f = Common.median (List.map f rs) in
  let c = base.Round.counts in
  let per x = float_of_int x /. float_of_int base.Round.attempted in
  let event = Layers.event () and heap = Layers.heap () and channel = Layers.channel () in
  let resource = Layers.resource () in
  let local = Layers.send ~remote:false and remote = Layers.send ~remote:true in
  let null, null_msgs = Layers.null () in
  let hit = Layers.invoke ~tcache:true and miss = Layers.invoke ~tcache:false in
  let codec = Layers.codec () and derive = Layers.derive () in
  let copy_bytes, copy_remote = w.Workloads.copy in
  let copy, copy_msgs = Layers.copy ~bytes:copy_bytes ~remote:copy_remote in
  let gpu = Layers.gpu_kernel () and nvme = Layers.nvme_read () in
  let router = Layers.router_pick () and metric = Layers.metric_update () in
  let retry = Layers.retry () and db_s = Layers.facedata_db_s () in
  (* Estimated host ns per request, layer by layer: per-request operation
     counts from public counters times each entry point's cost. Syscall
     and copy costs exclude the fabric sends they contain, which the net
     share already counts; sim counts one dispatch per fiber spawned. *)
  let host_ns = med (fun r -> host_s r *. 1e9 /. float_of_int r.Round.attempted) in
  let send_ns = if copy_remote then remote.Layers.ns else local.Layers.ns in
  let chunks_per_req =
    per c.Round.copy_bytes /. float_of_int Fractos_net.Config.default.Fractos_net.Config.bounce_chunk
  in
  let est_sim = per c.Round.fibers *. event.Layers.ns in
  let est_net =
    (per (c.Round.msgs - c.Round.remote_msgs) *. local.Layers.ns)
    +. (per c.Round.remote_msgs *. remote.Layers.ns)
  in
  let est_core =
    per c.Round.syscalls *. Float.max 0. (null.Layers.ns -. (float_of_int null_msgs *. local.Layers.ns))
  in
  let est_copy = chunks_per_req *. Float.max 0. (copy.Layers.ns -. (copy_msgs *. send_ns)) in
  let share x = x /. host_ns in
  let sim = "host_reqs_per_s, alloc_words_per_req: invoke (most), pd, faceverify (little)" in
  let inv = "host_reqs_per_s: invoke" in
  let cap = "host_reqs_per_s, peak_rss_mb: pd, faceverify" in
  let cp = "host_reqs_per_s: faceverify, pd" in
  let ctrl = "sim_p99_us, success_ratio: invoke" in
  let setup = "setup_s, peak_rss_mb: faceverify" in
  let tax = "sim_p50_us, sim_p99_us: all" in
  let host = "host_reqs_per_s: all" in
  (* name, unit, value, spread of a timing, what it should move *)
  let v name unit_ x maps_to = (name, unit_, x, None, maps_to) in
  let ns name (t : Layers.timing) maps_to = (name, "ns", t.Layers.ns, Some t.Layers.spread, maps_to) in
  let words name (t : Layers.timing) maps_to = v name "words" t.Layers.words maps_to in
  let rows =
    [
      ns "sim.event_ns" event sim; words "sim.event_words" event sim;
      ns "sim.heap_ns" heap sim; words "sim.heap_words" heap sim;
      ns "sim.channel_ns" channel sim; words "sim.channel_words" channel sim;
      ns "sim.resource_ns" resource sim;
      v "sim.fibers_per_req" "count" (per c.Round.fibers) sim;
      ns "net.send_local_ns" local inv; words "net.send_local_words" local inv;
      ns "net.send_remote_ns" remote "host_reqs_per_s: pd";
      words "net.send_remote_words" remote "host_reqs_per_s: pd";
      v "net.msgs_per_req" "count" (per c.Round.msgs) "host_reqs_per_s: invoke, pd";
      v "net.remote_msgs_per_req" "count" (per c.Round.remote_msgs) "host_reqs_per_s: pd";
      v "net.bytes_per_req" "B" (per c.Round.bytes) "host_reqs_per_s: invoke, pd";
      ns "core.null_ns" null inv;
      v "core.syscalls_per_req" "count" (per c.Round.syscalls) inv;
      ns "core.invoke_hit_ns" hit inv; ns "core.invoke_miss_ns" miss inv;
      ns "core.codec_ns" codec inv;
      ns "core.derive_ns" derive cap;
      v "core.captable_per_req" "count" (per c.Round.captable) cap;
      ns "core.copy_chunk_ns" copy cp; words "core.copy_chunk_words" copy cp;
      v "core.copy_chunks_per_req" "count" chunks_per_req cp;
      v "ctrl.tcache_hit_ratio" "ratio"
        (Common.ratio c.Round.tcache_hits (c.Round.tcache_hits + c.Round.tcache_misses)) ctrl;
      v "ctrl.dir_hit_ratio" "ratio"
        (Common.ratio c.Round.dir_hits (c.Round.dir_hits + c.Round.dir_misses)) ctrl;
      v "ctrl.overloads_per_req" "count" (per c.Round.overloads) ctrl;
      v "fault.retries_per_req" "count" (per c.Round.retries) ctrl;
      ns "device.gpu_kernel_ns" gpu "host_reqs_per_s: faceverify";
      ns "device.nvme_read_ns" nvme "host_reqs_per_s: faceverify";
      ns "services.router_pick_ns" router "host_reqs_per_s: pd";
      v "workloads.facedata_db_s" "s" db_s setup;
      v "workloads.inputs_s" "s" (med (fun r -> r.Round.inputs_s)) setup;
      v "testbed.cluster_s" "s" (med (fun r -> r.Round.cluster_s)) setup;
      v "testbed.populate_s" "s" (med (fun r -> r.Round.populate_s)) setup;
      ns "obs.metric_update_ns" metric inv;
      ns "fault.retry_ns" retry inv;
      v "obs.trace_overhead" "ratio" trace_overhead inv;
      v "tax.ctrl_share" "fraction" shares.Tax.ctrl tax;
      v "tax.fabric_share" "fraction" shares.Tax.fabric tax;
      v "tax.queue_share" "fraction" shares.Tax.queue tax;
      v "tax.device_share" "fraction" shares.Tax.device tax;
      v "tax.client_share" "fraction" shares.Tax.client tax;
      v "tax.idle_share" "fraction" shares.Tax.idle tax;
      v "tax_share" "fraction" (Tax.tax_share shares) tax;
      v "host.ns_per_req" "ns" host_ns host;
      v "host.slowdown" "ratio" (Common.median (List.map snd rsd)) host;
      v "host_share.sim" "fraction" (share est_sim) host;
      v "host_share.net" "fraction" (share est_net) host;
      v "host_share.core" "fraction" (share est_core) host;
      v "host_share.copy" "fraction" (share est_copy) cp;
      v "host_share.unexplained" "fraction"
        (1. -. share (est_sim +. est_net +. est_core +. est_copy)) host;
    ]
  in
  Printf.printf "%-26s %14s %-9s %-8s %s\n" "metric" "value" "unit" "spread" "moves (workload)";
  List.iter
    (fun (name, unit_, x, spread, maps_to) ->
      let spread = match spread with Some s -> Printf.sprintf "%.1f%%" (100. *. s) | None -> "" in
      Printf.printf "%-26s %14.6g %-9s %-8s %s\n" name x unit_ spread maps_to)
    rows;
  let attempted = sum (fun r -> r.Round.attempted) rs + traced.Round.attempted in
  let ok = sum (fun r -> r.Round.ok) rs + traced.Round.ok in
  ( correct && traced_ok,
    attempted,
    attempted - ok,
    List.map (fun (name, unit_, x, _, _) -> m name unit_ x) rows )

let () =
  Arg.parse args (fun a -> die "unexpected argument %s" a) usage;
  let w =
    match List.find_opt (fun w -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None -> die "unknown workload %S (%s)" !workload usage
  in
  if !seconds < 1 then die "--seconds must be >= 1";
  Printf.printf "workload %s seed %d: %s\n" w.Workloads.name !seed
    (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) w.Workloads.params));
  let correct, attempted, failed, metrics =
    match !trace with
    | 0 -> end_to_end w
    | 1 -> per_layer w
    | _ -> die "--trace must be 0 or 1"
  in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
