(* One round of a workload: generate its inputs, build and warm a fresh
   testbed (all of that is set-up), then run the two measured phases:
   - open loop: requests fire at their pre-generated due times whether
     or not earlier ones completed, each timed from its due time;
   - closed loop: a fixed number of requests in flight, for capacity.
   Every round of one seed simulates exactly the same thing; the digest
   of its simulated results lets the caller check that. *)

open Fractos_sim
module Tb = Fractos_testbed.Testbed
module Stats = Fractos_net.Stats
module Metrics = Fractos_obs.Metrics
module Retry = Fractos_fault.Retry
module Core = Fractos_core

type counts = {
  msgs : int;
  bytes : int;
  remote_msgs : int;  (** messages that crossed the switch *)
  syscalls : int;
  tcache_hits : int;
  tcache_misses : int;
  dir_hits : int;
  dir_misses : int;
  overloads : int;
  retries : int;
  captable : int;  (** growth of the capability tables *)
  copy_bytes : int;
  fibers : int;
}

type t = {
  inputs_s : float;
  cluster_s : float;
  populate_s : float;
  setup_s : float;  (** round start to the first measured request *)
  attempted : int;
  ok : int;
  lat : int array;  (** open-loop latencies, sorted, ns *)
  ttft : int array;  (** open-loop TTFT, sorted (= [lat] outside pd) *)
  closed_ok : int;  (** closed loop: requests that returned Ok *)
  closed_ns : int;  (** closed loop: simulated duration *)
  open_host_s : float;
  closed_host_s : float;
  words : float;  (** allocated over both measured phases *)
  counts : counts;  (** over both measured phases *)
  digest : string;
  mismatches : string list;
  peak_rss_mb : float;  (** high-water mark of the process that ran it *)
}

let counter_sum name =
  List.fold_left
    (fun acc (_, n, v) -> if n = name then acc + v else acc)
    0 (Metrics.counters_list ())

let gauge_sum name =
  List.fold_left
    (fun acc (_, n, v, _) -> if n = name then acc + v else acc)
    0 (Metrics.gauges_list ())

let snapshot tb =
  let c = Stats.census (Fractos_net.Fabric.stats tb.Tb.fabric) in
  {
    msgs = c.Stats.messages;
    bytes = c.Stats.bytes;
    remote_msgs = c.Stats.net_messages;
    syscalls = counter_sum "ctrl.syscalls";
    tcache_hits = counter_sum "ctrl.tcache_hits";
    tcache_misses = counter_sum "ctrl.tcache_misses";
    dir_hits = counter_sum "ctrl.dir_hits";
    dir_misses = counter_sum "ctrl.dir_misses";
    overloads = counter_sum "ctrl.overloads";
    retries = Retry.retries ();
    captable = gauge_sum "ctrl.captable";
    copy_bytes = counter_sum "ctrl.copy_bytes";
    fibers = Engine.fiber_count ();
  }

let diff b a =
  {
    msgs = b.msgs - a.msgs;
    bytes = b.bytes - a.bytes;
    remote_msgs = b.remote_msgs - a.remote_msgs;
    syscalls = b.syscalls - a.syscalls;
    tcache_hits = b.tcache_hits - a.tcache_hits;
    tcache_misses = b.tcache_misses - a.tcache_misses;
    dir_hits = b.dir_hits - a.dir_hits;
    dir_misses = b.dir_misses - a.dir_misses;
    overloads = b.overloads - a.overloads;
    retries = b.retries - a.retries;
    captable = b.captable - a.captable;
    copy_bytes = b.copy_bytes - a.copy_bytes;
    fibers = b.fibers - a.fibers;
  }

let open_loop (p : Workloads.plan) ok =
  let n = Array.length p.due in
  let lat = Array.make n 0 in
  let pending = ref n in
  let all_done = Ivar.create () in
  let t0 = Engine.now () in
  Array.iteri
    (fun i d ->
      Engine.sleep_until (t0 + d);
      Engine.spawn (fun () ->
          if Tax.request (fun () -> p.open_req i) then incr ok;
          lat.(i) <- Engine.now () - (t0 + d);
          decr pending;
          if !pending = 0 then Ivar.fill all_done ()))
    p.due;
  Ivar.await all_done;
  lat

let closed_loop (p : Workloads.plan) ok =
  let next = ref 0 in
  let wg = Waitgroup.create () in
  let t0 = Engine.now () in
  for client = 0 to p.clients - 1 do
    Waitgroup.spawn wg (fun () ->
        while !next < p.closed_n do
          let i = !next in
          incr next;
          if p.closed_req ~client i then incr ok
        done)
  done;
  Waitgroup.wait wg;
  Engine.now () - t0

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let digest ~lat ~ttft ~ok ~attempted ~closed_ns =
  let b = Buffer.create (16 * Array.length lat) in
  Array.iter (fun x -> Buffer.add_string b (string_of_int x ^ ",")) lat;
  Array.iter (fun x -> Buffer.add_string b (string_of_int x ^ ",")) ttft;
  Printf.bprintf b "%d/%d/%d" ok attempted closed_ns;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_here (w : Workloads.t) ~seed ~traced =
  let t0 = Common.now () in
  let build = w.Workloads.prepare ~seed in
  let t_inputs = Common.now () in
  Tb.run ~config:w.Workloads.config (fun tb ->
      let mismatches = ref [] in
      let fail m = mismatches := m :: !mismatches in
      let populate = build tb ~fail in
      let t_cluster = Common.now () in
      let plan = populate () in
      let t_setup = Common.now () in
      let c0 = snapshot tb in
      let w0 = Common.words () in
      let ok_open = ref 0 and ok_closed = ref 0 in
      if traced then Tax.enable ();
      let lat = open_loop plan ok_open in
      if traced then Tax.disable ();
      let t_open = Common.now () in
      let closed_ns = closed_loop plan ok_closed in
      let t_closed = Common.now () in
      let w1 = Common.words () in
      let counts = diff (snapshot tb) c0 in
      let attempted = Array.length plan.due + plan.closed_n in
      let ttft = match plan.ttft with Some t -> t | None -> lat in
      {
        inputs_s = t_inputs -. t0;
        cluster_s = t_cluster -. t_inputs;
        populate_s = t_setup -. t_cluster;
        setup_s = t_setup -. t0;
        attempted;
        ok = !ok_open + !ok_closed;
        lat = sorted lat;
        ttft = sorted ttft;
        closed_ok = !ok_closed;
        closed_ns;
        open_host_s = t_open -. t_setup;
        closed_host_s = t_closed -. t_open;
        words = w1 -. w0;
        counts;
        digest = digest ~lat ~ttft ~ok:(!ok_open + !ok_closed) ~attempted ~closed_ns;
        mismatches = List.rev !mismatches;
        peak_rss_mb = Common.peak_rss_mb ();
      }, if traced then Some (Tax.shares ()) else None)

(* Run [f] in a child process forked from the benchmark's small parent,
   so every round starts from the same heap and its RSS high-water mark
   is its own; the child sends back [f ()]'s result. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc result [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result =
      try Marshal.from_channel ic with End_of_file -> Error "round process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match result with Ok r -> r | Error e -> failwith ("round failed: " ^ e))

let run w ~seed : t = fst (in_child (fun () -> run_here w ~seed ~traced:false))

(* A traced round, with the tax breakdown of its open-loop requests. *)
let run_traced w ~seed : t * Tax.shares =
  match in_child (fun () -> run_here w ~seed ~traced:true) with
  | r, Some shares -> (r, shares)
  | _, None -> assert false
