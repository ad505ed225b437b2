(* Extension experiment (not in the paper): effective memory_copy bandwidth
   of the windowed, credit-based, multi-stream copy engine vs the serial
   engine, swept over transfer size x (copy_window, copy_streams) x fabric
   line rate.

   On the paper's 10 Gbps fabric both engines are wire-bound, so the knobs
   are neutral — exactly the calibration regime. On a 100 Gbps fabric the
   serial engine is latency-bound on its per-chunk staging round trip
   (~5 us per 16 KiB chunk) while the pipelined engine overlaps staging,
   wire and write-out across the window, pushing the bottleneck back to the
   PCIe staging DMA. The headline is the 1 MiB speedup at 100 Gbps.

   A second table reruns the storage read path (FS-mediated and DAX) under
   the same knobs: both stacks move bulk data with third-party memory_copy
   (the FS service when mediating, the block adaptor's extent Requests
   under DAX), so both inherit part of the win — bounded by the NVMe
   device model, which the knobs cannot speed up.

   Results go to stdout and a machine-readable JSON file (default
   BENCH_copybw.json; see EXPERIMENTS.md for the schema). *)

open Fractos_sim
module Net = Fractos_net
module Config = Fractos_net.Config
module Tb = Fractos_testbed.Testbed
module S = Storage_common
open Fractos_core

let name = "copybw"
let ok_exn = Error.ok_exn

(* Set from bench/main.ml flags: --tiny shrinks the sweep for the
   @bench-gate alias; --copybw-json PATH names the output file. A full run
   writes BENCH_copybw.json by default; a --tiny run writes only to an
   explicit PATH. *)
let tiny = ref false
let json_path : string option ref = ref None

let gbit = 1_000_000_000
let headline_size = 1 lsl 20
let headline_net = 100
let headline_engine = (8, 4)

let copy_config ~net_gbps ~window ~streams =
  {
    Config.default with
    net_bandwidth_bps = net_gbps * gbit;
    copy_window = window;
    copy_streams = streams;
  }

type point = {
  p_size : int;
  p_window : int;
  p_streams : int;
  p_net_gbps : int;
  p_ns : int;
  p_gbps : float;
}

let gbps ~bytes ns =
  if ns <= 0 then 0. else float_of_int (bytes * 8) /. float_of_int ns

(* Fig. 5's topology: two hosts with CPU controllers, a third-party copy
   from pa@a into pb@b. The source is pattern-filled and the destination
   byte-checked after the warm-up copy, so every sweep point also
   re-validates engine correctness at its knob setting. *)
let copy_latency ~net_gbps ~window ~streams size =
  Tb.run ~config:(copy_config ~net_gbps ~window ~streams) (fun tb ->
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "a"; "b" ] in
      let sa = List.nth setups 0 and sb = List.nth setups 1 in
      let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "pa" in
      let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "pb" in
      let src_buf = Process.alloc pa size in
      let dst_buf = Process.alloc pb size in
      let pattern = Bytes.init size (fun i -> Char.chr ((i * 131) land 0xff)) in
      Membuf.write src_buf ~off:0 pattern;
      let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
      let dst =
        Tb.grant ~src:pb ~dst:pa (ok_exn (Api.memory_create pb dst_buf Perms.rw))
      in
      (* warm-up (allocators, caches) + integrity check *)
      ok_exn (Api.memory_copy pa ~src ~dst);
      if not (Bytes.equal (Membuf.read dst_buf ~off:0 ~len:size) pattern) then
        failwith
          (Printf.sprintf "copybw: corrupt copy at window=%d streams=%d" window
             streams);
      let t0 = Engine.now () in
      ok_exn (Api.memory_copy pa ~src ~dst);
      Engine.now () - t0)

let measure ~net_gbps ~window ~streams size =
  let ns = copy_latency ~net_gbps ~window ~streams size in
  {
    p_size = size;
    p_window = window;
    p_streams = streams;
    p_net_gbps = net_gbps;
    p_ns = ns;
    p_gbps = gbps ~bytes:size ns;
  }

let sizes () = if !tiny then [ headline_size ] else [ 65536; 262144; 1 lsl 20 ]
let engines () = if !tiny then [ (1, 1); (8, 4) ] else [ (1, 1); (4, 1); (8, 4); (16, 4) ]
let nets () = if !tiny then [ headline_net ] else [ 10; headline_net ]

(* ------------------------------------------------------------------ *)
(* Storage read path under the same knobs                              *)
(* ------------------------------------------------------------------ *)

type fs_point = {
  f_mode : string; (* "fs" | "dax" *)
  f_len : int;
  f_window : int;
  f_streams : int;
  f_ns : int;
}

let fs_read_latency ~dax ~window ~streams ~len =
  Tb.run ~config:(copy_config ~net_gbps:headline_net ~window ~streams)
    (fun tb ->
      let st = S.fractos_setup tb in
      let op ~off =
        if dax then S.dax_op st ~write:false ~off ~len else S.fs_read st ~off ~len
      in
      op ~off:0;
      let t0 = Engine.now () in
      op ~off:len;
      Engine.now () - t0)

let fs_points () =
  List.concat_map
    (fun (mode, dax) ->
      List.map
        (fun (window, streams) ->
          let len = headline_size in
          let ns = fs_read_latency ~dax ~window ~streams ~len in
          { f_mode = mode; f_len = len; f_window = window; f_streams = streams;
            f_ns = ns })
        [ (1, 1); headline_engine ])
    [ ("fs", false); ("dax", true) ]

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled JSON (no JSON library in the image), same style as the
   loadcurve export. *)
let write_json ~points ~fs ~headline () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"copybw\",\n  \"schema\": 1,\n  \"tiny\": %b,\n  \
        %s,\n"
       !tiny
       (Bench_util.meta_json ~seeds:[]
          ~knobs:
            [
              Printf.sprintf "\"tiny\": %b" !tiny;
              Printf.sprintf "\"headline_size\": %d" headline_size;
              Printf.sprintf "\"headline_net_gbps\": %d" headline_net;
              Printf.sprintf "\"headline_window\": %d" (fst headline_engine);
              Printf.sprintf "\"headline_streams\": %d" (snd headline_engine);
            ] ()));
  Buffer.add_string buf "  \"points\": [\n";
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"size\": %d, \"window\": %d, \"streams\": %d, \
            \"net_gbps\": %d, \"ns\": %d, \"gbps\": %.2f}%s\n"
           p.p_size p.p_window p.p_streams p.p_net_gbps p.p_ns p.p_gbps
           (if i = List.length points - 1 then "" else ",")))
    points;
  Buffer.add_string buf "  ],\n  \"fs_read\": [\n";
  List.iteri
    (fun i f ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"mode\": %S, \"len\": %d, \"window\": %d, \"streams\": %d, \
            \"net_gbps\": %d, \"ns\": %d}%s\n"
           f.f_mode f.f_len f.f_window f.f_streams headline_net f.f_ns
           (if i = List.length fs - 1 then "" else ",")))
    fs;
  let serial, pipelined = headline in
  Buffer.add_string buf
    (Printf.sprintf
       "  ],\n  \"headline\": {\"size\": %d, \"net_gbps\": %d, \
        \"window\": %d, \"streams\": %d, \"serial_gbps\": %.2f, \
        \"pipelined_gbps\": %.2f, \"speedup\": %.2f}\n}\n"
       headline_size headline_net (fst headline_engine) (snd headline_engine)
       serial.p_gbps pipelined.p_gbps
       (if serial.p_gbps > 0. then pipelined.p_gbps /. serial.p_gbps else 0.));
  Bench_util.save_json ~tiny:!tiny ~default:"BENCH_copybw.json" !json_path
    (Buffer.contents buf)

let run () =
  Bench_util.section
    "Extension: memory_copy bandwidth, serial vs windowed/multi-stream \
     engine (Gbit/s)";
  let points =
    List.concat_map
      (fun net_gbps ->
        List.concat_map
          (fun size ->
            List.map
              (fun (window, streams) -> measure ~net_gbps ~window ~streams size)
              (engines ()))
          (sizes ()))
      (nets ())
  in
  Bench_util.table
    ~header:[ "fabric"; "size"; "window"; "streams"; "us"; "Gbit/s" ]
    ~rows:
      (List.map
         (fun p ->
           [
             Printf.sprintf "%dG" p.p_net_gbps;
             Bench_util.show_size p.p_size;
             string_of_int p.p_window;
             string_of_int p.p_streams;
             Bench_util.us p.p_ns;
             Printf.sprintf "%.1f" p.p_gbps;
           ])
         points);
  let find ~net ~engine size =
    List.find
      (fun p ->
        p.p_size = size && p.p_net_gbps = net
        && (p.p_window, p.p_streams) = engine)
      points
  in
  let serial = find ~net:headline_net ~engine:(1, 1) headline_size in
  let pipelined = find ~net:headline_net ~engine:headline_engine headline_size in
  Format.printf
    "[headline: 1 MiB at %d Gbps — %.1f Gbit/s serial vs %.1f Gbit/s with \
     window %d x %d streams (%.2fx); at 10 Gbps both engines are \
     wire-bound and the knobs are neutral]@."
    headline_net serial.p_gbps pipelined.p_gbps (fst headline_engine)
    (snd headline_engine)
    (pipelined.p_gbps /. serial.p_gbps);
  let fs = if !tiny then [] else fs_points () in
  if not !tiny then begin
    Bench_util.section
      "Extension (cont.): 1 MiB storage reads under the same knobs (usec)";
    Bench_util.table
      ~header:[ "path"; "window"; "streams"; "us" ]
      ~rows:
        (List.map
           (fun f ->
             [
               (if f.f_mode = "fs" then "FS read" else "DAX read");
               string_of_int f.f_window;
               string_of_int f.f_streams;
               Bench_util.us f.f_ns;
             ])
           fs);
    Format.printf
      "[both stacks move bulk data via third-party memory_copy and inherit \
       part of the win, bounded by the NVMe device model]@."
  end;
  write_json ~points ~fs ~headline:(serial, pipelined) ()
