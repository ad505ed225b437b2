(* Tests for the FractOS core: capabilities, Memory and Request objects,
   decentralized invocation, revocation trees, monitors, failure
   translation, and the memory_copy engine. *)

open Fractos_sim
open Fractos_core
module Tb = Fractos_testbed.Testbed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let err =
  Alcotest.testable
    (fun fmt e -> Error.pp fmt e)
    (fun a b -> Error.equal a b)

let result_t ok = Alcotest.result ok err
let ok_exn = Error.ok_exn

(* Two hosts, one controller each, one process each. *)
let two_node_setup tb =
  let a = Tb.add_host tb "alpha" in
  let b = Tb.add_host tb "beta" in
  let ca = Tb.add_ctrl tb ~on:a in
  let cb = Tb.add_ctrl tb ~on:b in
  let pa = Tb.add_proc tb ~on:a ~ctrl:ca "proc-a" in
  let pb = Tb.add_proc tb ~on:b ~ctrl:cb "proc-b" in
  (pa, pb, ca, cb)

(* ------------------------------------------------------------------ *)
(* Null syscall / plumbing                                            *)
(* ------------------------------------------------------------------ *)

let test_null_roundtrip () =
  Tb.run (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      Alcotest.check (result_t Alcotest.unit) "null ok" (Ok ()) (Api.null pa))

let test_null_latency_close_to_paper () =
  (* Table 3: FractOS null op with controller on the local CPU = 3.00 us. *)
  Tb.run (fun tb ->
      let a = Tb.add_host tb "alpha" in
      let ca = Tb.add_ctrl tb ~on:a in
      let pa = Tb.add_proc tb ~on:a ~ctrl:ca "p" in
      let t0 = Engine.now () in
      ignore (ok_exn (Api.null pa));
      let us = Time.to_us_f (Engine.now () - t0) in
      if us < 2.5 || us > 3.6 then
        Alcotest.failf "null latency %.2fus outside [2.5, 3.6]" us)

let test_null_latency_snic_higher () =
  Tb.run (fun tb ->
      let a = Tb.add_host tb "alpha" in
      let ca = Tb.add_snic_ctrl tb ~host:a in
      let pa = Tb.add_proc tb ~on:a ~ctrl:ca "p" in
      let t0 = Engine.now () in
      ignore (ok_exn (Api.null pa));
      let us = Time.to_us_f (Engine.now () - t0) in
      (* Table 3: 4.50 us on the sNIC *)
      if us < 4.0 || us > 5.2 then
        Alcotest.failf "snic null latency %.2fus outside [4.0, 5.2]" us)

let test_unattached_process () =
  Tb.run (fun tb ->
      ignore tb;
      let node = Tb.add_host tb "n" in
      let p = Process.create ~node "loose" in
      match Api.null p with
      | Error (Error.Bad_argument _) -> ()
      | Ok () -> Alcotest.fail "unattached syscall succeeded"
      | Error e -> Alcotest.failf "unexpected error %s" (Error.to_string e))

(* ------------------------------------------------------------------ *)
(* Memory objects                                                     *)
(* ------------------------------------------------------------------ *)

let test_memory_create_and_copy_local () =
  Tb.run (fun tb ->
      let a = Tb.add_host tb "alpha" in
      let ca = Tb.add_ctrl tb ~on:a in
      let pa = Tb.add_proc tb ~on:a ~ctrl:ca "p" in
      let src_buf = Process.alloc pa 64 in
      Membuf.write src_buf ~off:0 (Bytes.of_string "hello, fractos!!");
      let dst_buf = Process.alloc pa 64 in
      let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
      let dst = ok_exn (Api.memory_create pa dst_buf Perms.rw) in
      ok_exn (Api.memory_copy pa ~src ~dst);
      check_str "data copied" "hello, fractos!!"
        (Bytes.to_string (Membuf.read dst_buf ~off:0 ~len:16)))

let test_memory_copy_cross_node () =
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let src_buf = Process.alloc pa 4096 in
      let g = Prng.create ~seed:1 in
      Prng.fill_bytes g src_buf.Membuf.data;
      let dst_buf = Process.alloc pb 4096 in
      let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
      let dst_b = ok_exn (Api.memory_create pb dst_buf Perms.rw) in
      (* delegate pb's dst capability to pa via operator bootstrap *)
      let dst = Tb.grant ~src:pb ~dst:pa dst_b in
      ok_exn (Api.memory_copy pa ~src ~dst);
      check_bool "bytes equal" true
        (Bytes.equal src_buf.Membuf.data dst_buf.Membuf.data))

let test_memory_copy_large_chunked () =
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let n = 300_000 in
      let src_buf = Process.alloc pa n in
      let g = Prng.create ~seed:7 in
      Prng.fill_bytes g src_buf.Membuf.data;
      let dst_buf = Process.alloc pb n in
      let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
      let dst = Tb.grant ~src:pb ~dst:pa (ok_exn (Api.memory_create pb dst_buf Perms.rw)) in
      let t0 = Engine.now () in
      ok_exn (Api.memory_copy pa ~src ~dst);
      let elapsed = Engine.now () - t0 in
      check_bool "bytes equal" true
        (Bytes.equal src_buf.Membuf.data dst_buf.Membuf.data);
      (* 300 kB at 10 Gbps is 240 us of pure wire; with bounce buffers and
         pipelining we should land within ~2.5x of that. *)
      check_bool "pipelined time sane" true
        (elapsed > 240_000 && elapsed < 600_000))

let test_memory_copy_async_overlap () =
  (* Two in-flight copies from one process overlap on the wire: the
     asynchronous protocol of Table 1. *)
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      (* small copies: software costs dominate, so overlap shows clearly
         (large copies serialize on the shared wire regardless) *)
      let size = 4096 in
      let mk () =
        let src = ok_exn (Api.memory_create pa (Process.alloc pa size) Perms.ro) in
        let dst =
          Tb.grant ~src:pb ~dst:pa
            (ok_exn (Api.memory_create pb (Process.alloc pb size) Perms.rw))
        in
        (src, dst)
      in
      let (s1, d1) = mk () and (s2, d2) = mk () in
      ok_exn (Api.memory_copy pa ~src:s1 ~dst:d1);
      (* sequential *)
      let t0 = Engine.now () in
      ok_exn (Api.memory_copy pa ~src:s1 ~dst:d1);
      ok_exn (Api.memory_copy pa ~src:s2 ~dst:d2);
      let seq = Engine.now () - t0 in
      (* overlapped *)
      let t1 = Engine.now () in
      let iv1 = Api.memory_copy_async pa ~src:s1 ~dst:d1 in
      let iv2 = Api.memory_copy_async pa ~src:s2 ~dst:d2 in
      ok_exn (Ivar.await iv1);
      ok_exn (Ivar.await iv2);
      let par = Engine.now () - t1 in
      check_bool
        (Printf.sprintf "overlapped (%s) well under sequential (%s)"
           (Time.to_string par) (Time.to_string seq))
        true
        (par * 4 < seq * 3))

let test_memory_copy_perms () =
  Tb.run (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      let b1 = Process.alloc pa 16 and b2 = Process.alloc pa 16 in
      let wo = ok_exn (Api.memory_create pa b1 Perms.wo) in
      let ro = ok_exn (Api.memory_create pa b2 Perms.ro) in
      let rw = ok_exn (Api.memory_create pa b2 Perms.rw) in
      Alcotest.check (result_t Alcotest.unit) "unreadable source"
        (Error Error.Perm_denied)
        (Api.memory_copy pa ~src:wo ~dst:rw);
      let rdable = ok_exn (Api.memory_create pa b1 Perms.ro) in
      Alcotest.check (result_t Alcotest.unit) "unwritable destination"
        (Error Error.Perm_denied)
        (Api.memory_copy pa ~src:rdable ~dst:ro))

let test_memory_copy_bounds () =
  Tb.run (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      let big = Process.alloc pa 64 and small = Process.alloc pa 16 in
      let src = ok_exn (Api.memory_create pa big Perms.ro) in
      let dst = ok_exn (Api.memory_create pa small Perms.rw) in
      Alcotest.check (result_t Alcotest.unit) "dst too small"
        (Error Error.Bounds)
        (Api.memory_copy pa ~src ~dst))

let test_memory_create_bounds () =
  Tb.run (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      let buf = Process.alloc pa 10 in
      Alcotest.check (result_t Alcotest.int) "oversized extent"
        (Error Error.Bounds)
        (Api.memory_create pa ~off:4 ~len:8 buf Perms.rw))

(* ------------------------------------------------------------------ *)
(* Windowed / multi-stream copy engine                                 *)
(* ------------------------------------------------------------------ *)

let copy_config ?(net_gbps = 10) ~window ~streams () =
  {
    Fractos_net.Config.default with
    net_bandwidth_bps = net_gbps * 1_000_000_000;
    copy_window = window;
    copy_streams = streams;
  }

(* Cross-node copy round trip at the given knobs; returns elapsed time. *)
let timed_copy ?net_gbps ~window ~streams n =
  Tb.run ~config:(copy_config ?net_gbps ~window ~streams ()) (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let src_buf = Process.alloc pa n in
      let g = Prng.create ~seed:(n + (window * 131) + streams) in
      Prng.fill_bytes g src_buf.Membuf.data;
      let dst_buf = Process.alloc pb n in
      let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
      let dst =
        Tb.grant ~src:pb ~dst:pa
          (ok_exn (Api.memory_create pb dst_buf Perms.rw))
      in
      let t0 = Engine.now () in
      ok_exn (Api.memory_copy pa ~src ~dst);
      let elapsed = Engine.now () - t0 in
      check_bool
        (Printf.sprintf "bytes equal (n=%d window=%d streams=%d)" n window
           streams)
        true
        (Bytes.equal src_buf.Membuf.data dst_buf.Membuf.data);
      elapsed)

let test_copy_pipelined_single_chunk () =
  (* a sub-chunk copy must still work when the pipelined engine is on *)
  ignore (timed_copy ~window:8 ~streams:4 100)

let test_copy_pipelined_faster_on_fast_fabric () =
  (* On a 100 Gbps fabric the serial engine is latency-bound on its
     per-chunk staging round trip; the windowed multi-stream engine must
     recover at least 2x effective bandwidth on a 1 MiB copy (the
     headline floor `fractos gate` also holds BENCH_copybw.json to). *)
  let n = 1 lsl 20 in
  let serial = timed_copy ~net_gbps:100 ~window:1 ~streams:1 n in
  let pipelined = timed_copy ~net_gbps:100 ~window:8 ~streams:4 n in
  check_bool
    (Printf.sprintf "pipelined (%s) at least 2x faster than serial (%s)"
       (Time.to_string pipelined) (Time.to_string serial))
    true
    (2 * pipelined <= serial)

let test_copy_pipelined_default_knobs_identical () =
  (* window = streams = 1 must reproduce the serial engine bit-for-bit:
     same simulated completion time, not just same bytes *)
  let n = 300_000 in
  let explicit = timed_copy ~window:1 ~streams:1 n in
  let default_cfg =
    Tb.run (fun tb ->
        let pa, pb, _, _ = two_node_setup tb in
        let src_buf = Process.alloc pa n in
        let g = Prng.create ~seed:(n + 131 + 1) in
        Prng.fill_bytes g src_buf.Membuf.data;
        let dst_buf = Process.alloc pb n in
        let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
        let dst =
          Tb.grant ~src:pb ~dst:pa
            (ok_exn (Api.memory_create pb dst_buf Perms.rw))
        in
        let t0 = Engine.now () in
        ok_exn (Api.memory_copy pa ~src ~dst);
        Engine.now () - t0)
  in
  check_int "default config = serial engine timing" explicit default_cfg

let test_copy_pipelined_decoupled_from_invokes () =
  (* A bulk pipelined copy stages through the controller's copy engine,
     not its syscall cores: an unrelated null syscall issued mid-copy must
     not be head-of-line blocked behind ~64 chunk memcpys. *)
  Tb.run ~config:(copy_config ~net_gbps:100 ~window:8 ~streams:4 ())
    (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let n = 1 lsl 20 in
      let src_buf = Process.alloc pa n in
      let dst_buf = Process.alloc pb n in
      let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
      let dst =
        Tb.grant ~src:pb ~dst:pa
          (ok_exn (Api.memory_create pb dst_buf Perms.rw))
      in
      let t0 = Engine.now () in
      ignore (ok_exn (Api.null pa));
      let idle_null = Engine.now () - t0 in
      let copy_done = Api.memory_copy_async pa ~src ~dst in
      (* land in the middle of the copy's lifetime *)
      Engine.sleep (Time.us 30);
      let t1 = Engine.now () in
      ignore (ok_exn (Api.null pa));
      let busy_null = Engine.now () - t1 in
      ok_exn (Ivar.await copy_done);
      check_bool
        (Printf.sprintf "null during copy (%s) close to idle null (%s)"
           (Time.to_string busy_null) (Time.to_string idle_null))
        true
        (busy_null <= 3 * idle_null))

let test_invalid_cid () =
  Tb.run (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      Alcotest.check (result_t Alcotest.unit) "bogus cid"
        (Error Error.Invalid_cap)
        (Api.request_invoke pa 9999))

(* ------------------------------------------------------------------ *)
(* memory_diminish                                                    *)
(* ------------------------------------------------------------------ *)

let test_diminish_extent_and_write_through () =
  Tb.run (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      let buf = Process.alloc pa 32 in
      Membuf.fill buf '.';
      let whole = ok_exn (Api.memory_create pa buf Perms.rw) in
      (* view of bytes [8, 16) *)
      let view =
        ok_exn (Api.memory_diminish pa whole ~off:8 ~len:8 ~drop:Perms.none)
      in
      let src_buf = Process.alloc pa 8 in
      Membuf.write src_buf ~off:0 (Bytes.of_string "ABCDEFGH");
      let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
      ok_exn (Api.memory_copy pa ~src ~dst:view);
      check_str "written through view at offset"
        "........ABCDEFGH........"
        (Bytes.to_string (Membuf.read buf ~off:0 ~len:24)))

let test_diminish_drops_perms () =
  Tb.run (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      let buf = Process.alloc pa 16 in
      let whole = ok_exn (Api.memory_create pa buf Perms.rw) in
      let ro_view =
        ok_exn (Api.memory_diminish pa whole ~off:0 ~len:16 ~drop:Perms.wo)
      in
      let src = ok_exn (Api.memory_create pa (Process.alloc pa 16) Perms.ro) in
      Alcotest.check (result_t Alcotest.unit) "view is read-only"
        (Error Error.Perm_denied)
        (Api.memory_copy pa ~src ~dst:ro_view))

let test_diminish_bounds () =
  Tb.run (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      let buf = Process.alloc pa 16 in
      let whole = ok_exn (Api.memory_create pa buf Perms.rw) in
      Alcotest.check (result_t Alcotest.int) "past end"
        (Error Error.Bounds)
        (Api.memory_diminish pa whole ~off:8 ~len:16 ~drop:Perms.none))

let test_diminish_of_diminish () =
  Tb.run (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      let buf = Process.alloc pa 32 in
      Membuf.fill buf '.';
      let whole = ok_exn (Api.memory_create pa buf Perms.rw) in
      let v1 = ok_exn (Api.memory_diminish pa whole ~off:8 ~len:16 ~drop:Perms.none) in
      let v2 = ok_exn (Api.memory_diminish pa v1 ~off:4 ~len:4 ~drop:Perms.none) in
      let src_buf = Process.alloc pa 4 in
      Membuf.write src_buf ~off:0 (Bytes.of_string "XYZW");
      let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
      ok_exn (Api.memory_copy pa ~src ~dst:v2);
      (* v2 covers parent offsets 8+4 = 12..16 *)
      check_str "nested view offset" "XYZW"
        (Bytes.to_string (Membuf.read buf ~off:12 ~len:4)))

let test_diminish_remote_owner () =
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let buf = Process.alloc pb 32 in
      Membuf.fill buf '.';
      let whole_b = ok_exn (Api.memory_create pb buf Perms.rw) in
      let whole_a = Tb.grant ~src:pb ~dst:pa whole_b in
      (* pa diminishes a capability whose object lives at pb's controller *)
      let view =
        ok_exn (Api.memory_diminish pa whole_a ~off:0 ~len:8 ~drop:Perms.wo)
      in
      let dst = ok_exn (Api.memory_create pa (Process.alloc pa 8) Perms.rw) in
      ok_exn (Api.memory_copy pa ~src:view ~dst))

(* ------------------------------------------------------------------ *)
(* Requests: create, invoke, receive                                  *)
(* ------------------------------------------------------------------ *)

let test_request_local_invoke () =
  Tb.run (fun tb ->
      let a = Tb.add_host tb "alpha" in
      let ca = Tb.add_ctrl tb ~on:a in
      let server = Tb.add_proc tb ~on:a ~ctrl:ca "server" in
      let client = Tb.add_proc tb ~on:a ~ctrl:ca "client" in
      let req =
        ok_exn
          (Api.request_create server ~tag:"echo" ~imms:[ Args.of_int 42 ] ())
      in
      let req_c = Tb.grant ~src:server ~dst:client req in
      ok_exn (Api.request_invoke client req_c);
      let d = Api.receive server in
      check_str "tag" "echo" d.State.d_tag;
      check_int "imm" 42 (Args.to_int (List.nth d.State.d_imms 0)))

let test_request_remote_invoke () =
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let req =
        ok_exn (Api.request_create pb ~tag:"work" ~imms:[ Args.of_int 7 ] ())
      in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      ok_exn (Api.request_invoke pa req_a);
      let d = Api.receive pb in
      check_str "tag" "work" d.State.d_tag;
      check_int "imm" 7 (Args.to_int (List.hd d.State.d_imms)))

let test_request_cap_delegation_on_invoke () =
  (* Invoking a Request whose args include a Memory capability delegates
     that capability to the provider, who can then use it. *)
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      (* client pa registers a buffer and passes it to server pb *)
      let buf = Process.alloc pa 16 in
      Membuf.write buf ~off:0 (Bytes.of_string "client-data!!!!!");
      let mem = ok_exn (Api.memory_create pa buf Perms.ro) in
      let base = ok_exn (Api.request_create pb ~tag:"read-my-buf" ()) in
      let base_a = Tb.grant ~src:pb ~dst:pa base in
      let refined = ok_exn (Api.request_derive pa base_a ~caps:[ mem ] ()) in
      ok_exn (Api.request_invoke pa refined);
      let d = Api.receive pb in
      check_int "one cap" 1 (List.length d.State.d_caps);
      let delegated = List.hd d.State.d_caps in
      (* server copies out of the delegated capability *)
      let dst_buf = Process.alloc pb 16 in
      let dst = ok_exn (Api.memory_create pb dst_buf Perms.rw) in
      ok_exn (Api.memory_copy pb ~src:delegated ~dst);
      check_str "server read client data" "client-data!!!!!"
        (Bytes.to_string dst_buf.Membuf.data))

let test_request_refinement_order () =
  (* Derived arguments append after the parent's (parent-first). *)
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let base =
        ok_exn (Api.request_create pb ~tag:"t" ~imms:[ Args.of_int 1 ] ())
      in
      let base_a = Tb.grant ~src:pb ~dst:pa base in
      let d1 = ok_exn (Api.request_derive pa base_a ~imms:[ Args.of_int 2 ] ()) in
      let d2 = ok_exn (Api.request_derive pa d1 ~imms:[ Args.of_int 3 ] ()) in
      ok_exn (Api.request_invoke pa d2);
      let d = Api.receive pb in
      Alcotest.(check (list int))
        "parent-first order" [ 1; 2; 3 ]
        (List.map Args.to_int d.State.d_imms))

let test_request_three_controller_chain () =
  (* base at ctrl-c (provider pc); derived at ctrl-b by pb; derived again
     at ctrl-a by pa; invocation forwards a->b->c. *)
  Tb.run (fun tb ->
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "na"; "nb"; "nc" ] in
      let sa = List.nth setups 0
      and sb = List.nth setups 1
      and sc = List.nth setups 2 in
      let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "pa" in
      let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "pb" in
      let pc = Tb.add_proc tb ~on:sc.Tb.node ~ctrl:sc.Tb.ctrl "pc" in
      let base =
        ok_exn (Api.request_create pc ~tag:"chain" ~imms:[ Args.of_int 10 ] ())
      in
      let base_b = Tb.grant ~src:pc ~dst:pb base in
      let der_b = ok_exn (Api.request_derive pb base_b ~imms:[ Args.of_int 20 ] ()) in
      let der_a0 = Tb.grant ~src:pb ~dst:pa der_b in
      let der_a = ok_exn (Api.request_derive pa der_a0 ~imms:[ Args.of_int 30 ] ()) in
      ok_exn (Api.request_invoke pa der_a);
      let d = Api.receive pc in
      Alcotest.(check (list int))
        "args accumulated root-first" [ 10; 20; 30 ]
        (List.map Args.to_int d.State.d_imms))

let test_sync_rpc_pattern () =
  (* The paper's A -> B -> A' synchronous-RPC encoding via continuations. *)
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      (* server request *)
      let svc = ok_exn (Api.request_create pb ~tag:"double" ()) in
      let svc_a = Tb.grant ~src:pb ~dst:pa svc in
      (* client's completion request (continuation) *)
      let done_req = ok_exn (Api.request_create pa ~tag:"done" ()) in
      (* server fiber: receive, compute, invoke continuation with result *)
      Engine.spawn (fun () ->
          let d = Api.receive pb in
          let x = Args.to_int (List.hd d.State.d_imms) in
          let k = List.hd d.State.d_caps in
          let k' =
            ok_exn (Api.request_derive pb k ~imms:[ Args.of_int (2 * x) ] ())
          in
          ok_exn (Api.request_invoke pb k'));
      let call =
        ok_exn
          (Api.request_derive pa svc_a ~imms:[ Args.of_int 21 ]
             ~caps:[ done_req ] ())
      in
      ok_exn (Api.request_invoke pa call);
      let resp = Api.receive pa in
      check_str "continuation tag" "done" resp.State.d_tag;
      check_int "result" 42 (Args.to_int (List.hd resp.State.d_imms)))

let test_invoke_memory_cap_rejected () =
  Tb.run (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      let mem =
        ok_exn (Api.memory_create pa (Process.alloc pa 8) Perms.rw)
      in
      match Api.request_invoke pa mem with
      | Error (Error.Bad_argument _) -> ()
      | Ok () -> Alcotest.fail "invoked a memory object"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e))

let test_invoke_dead_provider () =
  Tb.run (fun tb ->
      let pa, pb, _, cb = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"t" ()) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      Controller.fail_process cb pb;
      match Api.request_invoke pa req_a with
      | Error (Error.Provider_dead | Error.Revoked) -> ()
      | Ok () -> Alcotest.fail "invoked dead provider"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e))

(* ------------------------------------------------------------------ *)
(* Revocation                                                         *)
(* ------------------------------------------------------------------ *)

let test_revoke_then_use () =
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"t" ()) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      ok_exn (Api.cap_revoke pb req);
      match Api.request_invoke pa req_a with
      | Error (Error.Revoked | Error.Invalid_cap) -> ()
      | Ok () -> Alcotest.fail "invoked revoked request"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e))

let test_revtree_child_independent () =
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"t" ()) in
      (* two separately revocable handles for two clients *)
      let h1 = ok_exn (Api.cap_create_revtree pb req) in
      let h2 = ok_exn (Api.cap_create_revtree pb req) in
      let h1_a = Tb.grant ~src:pb ~dst:pa h1 in
      let h2_a = Tb.grant ~src:pb ~dst:pa h2 in
      ok_exn (Api.cap_revoke pb h1);
      (match Api.request_invoke pa h1_a with
      | Error (Error.Revoked | Error.Invalid_cap) -> ()
      | _ -> Alcotest.fail "revoked handle still usable");
      (* sibling handle and the root are unaffected *)
      ok_exn (Api.request_invoke pa h2_a);
      let d = Api.receive pb in
      check_str "tag" "t" d.State.d_tag)

let test_revoke_parent_kills_children () =
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"t" ()) in
      let child = ok_exn (Api.cap_create_revtree pb req) in
      let grandchild = ok_exn (Api.cap_create_revtree pb child) in
      let g_a = Tb.grant ~src:pb ~dst:pa grandchild in
      ok_exn (Api.cap_revoke pb req);
      match Api.request_invoke pa g_a with
      | Error (Error.Revoked | Error.Invalid_cap) -> ()
      | Ok () -> Alcotest.fail "grandchild survived root revocation"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e))

let test_revoke_diminished_view_parent () =
  Tb.run (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      let buf = Process.alloc pa 16 in
      let whole = ok_exn (Api.memory_create pa buf Perms.rw) in
      let view = ok_exn (Api.memory_diminish pa whole ~off:0 ~len:8 ~drop:Perms.none) in
      ok_exn (Api.cap_revoke pa whole);
      let src = ok_exn (Api.memory_create pa (Process.alloc pa 8) Perms.ro) in
      match Api.memory_copy pa ~src ~dst:view with
      | Error (Error.Revoked | Error.Invalid_cap) -> ()
      | Ok () -> Alcotest.fail "view survived source revocation"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e))

let test_cleanup_removes_foreign_entries () =
  Tb.run (fun tb ->
      let pa, pb, _, cb = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"t" ()) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      ok_exn (Api.cap_revoke pb req);
      (* allow the async cleanup broadcast to run *)
      Engine.sleep (Time.ms 1);
      (match Process.controller pa with
      | Some ca -> (
        match Controller.addr_of_cid ca pa req_a with
        | None -> ()
        | Some _ -> Alcotest.fail "dangling entry survived cleanup")
      | None -> Alcotest.fail "unattached");
      check_int "owner table tombstones cleared" 0 (Controller.tombstones cb))

let test_derived_request_dies_with_base () =
  (* Invoking a derived Request whose base was revoked is accepted at the
     (still-valid) local link of the chain — invocations acknowledge at the
     first validated owner — but the chain dies at the revoked base: the
     provider must never see a delivery. *)
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let base = ok_exn (Api.request_create pb ~tag:"t" ()) in
      let base_a = Tb.grant ~src:pb ~dst:pa base in
      let derived = ok_exn (Api.request_derive pa base_a ~imms:[ Args.of_int 1 ] ()) in
      ok_exn (Api.cap_revoke pb base);
      Engine.sleep (Time.ms 1);
      (match Api.request_invoke pa derived with
      | Error (Error.Revoked | Error.Invalid_cap) | Ok () -> ()
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e));
      Engine.sleep (Time.ms 1);
      check_int "no delivery through revoked base" 0
        (Sim.Channel.length pb.State.inbox))

(* ------------------------------------------------------------------ *)
(* Stale capabilities / controller failure                            *)
(* ------------------------------------------------------------------ *)

let test_controller_fail_unreachable () =
  Tb.run (fun tb ->
      let pa, pb, _, cb = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"t" ()) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      Controller.fail cb;
      match Api.request_invoke pa req_a with
      | Error Error.Ctrl_unreachable -> ()
      | Ok () -> Alcotest.fail "invoked through dead controller"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e))

let test_controller_restart_stale () =
  Tb.run (fun tb ->
      let pa, pb, _, cb = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"t" ()) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      Controller.fail cb;
      Controller.restart cb;
      (* pre-reboot capability is now eagerly detected as stale *)
      match Api.request_invoke pa req_a with
      | Error Error.Stale -> ()
      | Ok () -> Alcotest.fail "stale capability accepted"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e))

let test_controller_restart_serves_new_procs () =
  Tb.run (fun tb ->
      let _, _, _, cb = two_node_setup tb in
      Controller.fail cb;
      Controller.restart cb;
      check_bool "running again" true (Controller.is_running cb))

let test_syscall_to_failed_controller () =
  Tb.run (fun tb ->
      let pa, _, ca, _ = two_node_setup tb in
      Controller.fail ca;
      (* pa is managed by ca, so it is also dead; but test transport-level
         rejection via a process attached later to the dead ctrl's queue *)
      match Api.null pa with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "syscall through dead controller succeeded")

(* ------------------------------------------------------------------ *)
(* Monitors                                                           *)
(* ------------------------------------------------------------------ *)

let test_monitor_receive_on_revoke () =
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"svc" ()) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      ok_exn (Api.monitor_receive pa req_a ~cb:77);
      ok_exn (Api.cap_revoke pb req);
      match Api.monitor_next pa with
      | State.Receive_cb 77 -> ()
      | _ -> Alcotest.fail "wrong monitor event")

let test_monitor_delegate_counts () =
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      (* service pb creates a per-client handle, monitors it, delegates it
         via a request invocation *)
      let handle = ok_exn (Api.request_create pb ~tag:"client-handle" ()) in
      ok_exn (Api.monitor_delegate pb handle ~cb:5);
      (* delegate by passing as a capability argument to pa *)
      let carrier = ok_exn (Api.request_create pa ~tag:"carrier" ()) in
      let carrier_b = Tb.grant ~src:pa ~dst:pb carrier in
      let send = ok_exn (Api.request_derive pb carrier_b ~caps:[ handle ] ()) in
      ok_exn (Api.request_invoke pb send);
      let d = Api.receive pa in
      let got = List.hd d.State.d_caps in
      Engine.sleep (Time.ms 1);
      (* client drops its capability -> counter reaches zero -> callback *)
      ok_exn (Api.cap_revoke pa got);
      Engine.sleep (Time.ms 1);
      match Api.try_monitor_next pb with
      | Some (State.Delegate_cb 5) -> ()
      | Some _ -> Alcotest.fail "wrong event"
      | None -> Alcotest.fail "no delegate callback")

let test_monitor_delegate_multiple_clients () =
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let handle = ok_exn (Api.request_create pb ~tag:"h" ()) in
      ok_exn (Api.monitor_delegate pb handle ~cb:9);
      let carrier = ok_exn (Api.request_create pa ~tag:"carrier" ()) in
      let carrier_b = Tb.grant ~src:pa ~dst:pb carrier in
      (* delegate twice *)
      let send1 = ok_exn (Api.request_derive pb carrier_b ~caps:[ handle ] ()) in
      ok_exn (Api.request_invoke pb send1);
      let d1 = Api.receive pa in
      let send2 = ok_exn (Api.request_derive pb carrier_b ~caps:[ handle ] ()) in
      ok_exn (Api.request_invoke pb send2);
      let d2 = Api.receive pa in
      Engine.sleep (Time.ms 1);
      ok_exn (Api.cap_revoke pa (List.hd d1.State.d_caps));
      Engine.sleep (Time.ms 1);
      check_bool "no callback after first drop" true
        (Api.try_monitor_next pb = None);
      ok_exn (Api.cap_revoke pa (List.hd d2.State.d_caps));
      Engine.sleep (Time.ms 1);
      check_bool "callback after second drop" true
        (Api.try_monitor_next pb = Some (State.Delegate_cb 9)))

let test_monitor_failure_translation () =
  (* A provider failure is observed by clients via monitor_receive. *)
  Tb.run (fun tb ->
      let pa, pb, _, cb = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"svc" ()) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      ok_exn (Api.monitor_receive pa req_a ~cb:13);
      Controller.fail_process cb pb;
      Engine.sleep (Time.ms 1);
      check_bool "failure translated to revocation" true
        (Api.try_monitor_next pa = Some (State.Receive_cb 13)))

let test_monitor_delegate_client_death () =
  (* Service learns its client died because the delegated capability is
     dropped by failure handling. *)
  Tb.run (fun tb ->
      let pa, pb, ca, _ = two_node_setup tb in
      let handle = ok_exn (Api.request_create pb ~tag:"h" ()) in
      ok_exn (Api.monitor_delegate pb handle ~cb:21);
      let carrier = ok_exn (Api.request_create pa ~tag:"carrier" ()) in
      let carrier_b = Tb.grant ~src:pa ~dst:pb carrier in
      let send = ok_exn (Api.request_derive pb carrier_b ~caps:[ handle ] ()) in
      ok_exn (Api.request_invoke pb send);
      let _ = Api.receive pa in
      Engine.sleep (Time.ms 1);
      Controller.fail_process ca pa;
      Engine.sleep (Time.ms 1);
      check_bool "service notified of client death" true
        (Api.try_monitor_next pb = Some (State.Delegate_cb 21)))

(* ------------------------------------------------------------------ *)
(* Process failure translation                                        *)
(* ------------------------------------------------------------------ *)

let test_process_failure_invalidates_memory () =
  Tb.run (fun tb ->
      let pa, pb, ca, _ = two_node_setup tb in
      let buf = Process.alloc pa 16 in
      let mem_a = ok_exn (Api.memory_create pa buf Perms.rw) in
      let mem_b = Tb.grant ~src:pa ~dst:pb mem_a in
      Controller.fail_process ca pa;
      Engine.sleep (Time.ms 1);
      let dst = ok_exn (Api.memory_create pb (Process.alloc pb 16) Perms.rw) in
      match Api.memory_copy pb ~src:mem_b ~dst with
      | Error (Error.Revoked | Error.Invalid_cap) -> ()
      | Ok () -> Alcotest.fail "dead process's memory still readable"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e))

let test_node_failure () =
  Tb.run (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"t" ()) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      (* beta (provider node + its controller) loses power *)
      Tb.fail_node tb (Process.node pb);
      check_bool "provider dead" false (Process.is_alive pb);
      (match Api.request_invoke pa req_a with
      | Error Error.Ctrl_unreachable -> ()
      | Ok () -> Alcotest.fail "invoked through a dead node"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e));
      (* alpha is unaffected *)
      ignore (ok_exn (Api.null pa)))

let test_node_failure_remote_ctrl () =
  (* A process whose controller survives on another machine is failed
     through the channel-severed path, with full revocation translation. *)
  Tb.run (fun tb ->
      let a = Tb.add_host tb "alpha" in
      let b = Tb.add_host tb "beta" in
      let ca = Tb.add_ctrl tb ~on:a in
      (* pb lives on beta but is managed by alpha's controller *)
      let pa = Tb.add_proc tb ~on:a ~ctrl:ca "pa" in
      let pb = Tb.add_proc tb ~on:b ~ctrl:ca "pb" in
      let req = ok_exn (Api.request_create pb ~tag:"t" ()) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      ok_exn (Api.monitor_receive pa req_a ~cb:99);
      Tb.fail_node tb b;
      Engine.sleep (Time.ms 1);
      check_bool "watcher notified of node death" true
        (Api.try_monitor_next pa = Some (State.Receive_cb 99)))

(* ------------------------------------------------------------------ *)
(* Quotas and delegation tracking                                     *)
(* ------------------------------------------------------------------ *)

let test_capspace_quota () =
  let config = { Fractos_net.Config.default with capspace_quota = 4 } in
  Tb.run ~config (fun tb ->
      let pa, _, _, _ = two_node_setup tb in
      let buf = Process.alloc pa 16 in
      let rec fill n =
        match Api.memory_create pa buf Perms.ro with
        | Ok _ -> fill (n + 1)
        | Error Error.Quota_exceeded -> n
        | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e)
      in
      check_int "quota enforced" 4 (fill 0))

let test_track_delegations_cleanup () =
  (* Under the (rejected) delegation-tracking design, revocation needs no
     broadcast: the tombstone dies when the reference count drains. *)
  let config = { Fractos_net.Config.default with track_delegations = true } in
  Tb.run ~config (fun tb ->
      let pa, pb, _, cb = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"t" ()) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      Engine.sleep (Time.ms 1);
      ok_exn (Api.cap_revoke pb req);
      Engine.sleep (Time.ms 1);
      (* the remote holder still references it: tombstone survives *)
      check_int "tombstone held by remote ref" 1 (Controller.tombstones cb);
      (match Api.request_invoke pa req_a with
      | Error (Error.Revoked | Error.Invalid_cap) -> ()
      | Ok () -> Alcotest.fail "revoked object still usable"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e));
      (* dropping the last reference reclaims the tombstone (the syscall
         reports Revoked — the object is already dead — but the entry is
         dropped and the reference count decremented) *)
      (match Api.cap_revoke pa req_a with
      | Ok () | Error Error.Revoked -> ()
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e));
      Engine.sleep (Time.ms 1);
      check_int "tombstone reclaimed" 0 (Controller.tombstones cb))

let test_track_delegations_critical_path_cost () =
  (* The point of the paper's design: tracking puts messages on the
     delegation critical path. Count network messages for an RPC carrying
     4 capabilities under both designs. *)
  let count ~track =
    let config =
      { Fractos_net.Config.default with track_delegations = track }
    in
    Tb.run ~config (fun tb ->
        let pa, pb, _, _ = two_node_setup tb in
        Engine.spawn (fun () ->
            let rec loop () =
              let d = Api.receive pb in
              (match List.rev d.State.d_caps with
              | k :: _ -> ignore (Api.request_invoke pb k)
              | [] -> ());
              loop ()
            in
            loop ());
        let svc =
          Tb.grant ~src:pb ~dst:pa (ok_exn (Api.request_create pb ~tag:"s" ()))
        in
        let caps =
          List.init 4 (fun _ ->
              ok_exn (Api.memory_create pa (Process.alloc pa 16) Perms.ro))
        in
        let cont = ok_exn (Api.request_create pa ~tag:"k" ()) in
        let call = ok_exn (Api.request_derive pa svc ~caps:(caps @ [ cont ]) ()) in
        Fractos_net.Stats.reset (Fractos_net.Fabric.stats tb.Tb.fabric);
        ok_exn (Api.request_invoke pa call);
        ignore (Api.receive pa);
        Engine.sleep (Time.ms 1);
        (Fractos_net.Stats.census (Fractos_net.Fabric.stats tb.Tb.fabric))
          .net_messages)
  in
  let untracked = count ~track:false in
  let tracked = count ~track:true in
  check_bool
    (Printf.sprintf "tracking adds messages (%d > %d)" tracked untracked)
    true (tracked > untracked)

(* ------------------------------------------------------------------ *)
(* Congestion control                                                 *)
(* ------------------------------------------------------------------ *)

let test_congestion_window () =
  let config = { Fractos_net.Config.default with congestion_window = 2 } in
  Tb.run ~config (fun tb ->
      let pa, pb, _, _ = two_node_setup tb in
      let req = ok_exn (Api.request_create pb ~tag:"t" ()) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      (* Fire 6 concurrent invocations without the provider draining its
         queue: only [window] deliveries may be outstanding; the rest are
         back-pressured (their invoke acks are withheld). *)
      let acked = ref 0 in
      for _ = 1 to 6 do
        Engine.spawn (fun () ->
            ok_exn (Api.request_invoke pa req_a);
            incr acked)
      done;
      Engine.sleep (Time.ms 1);
      check_int "only window-many delivered" 2
        (Sim.Channel.length pb.State.inbox);
      check_bool "some invokers back-pressured" true (!acked < 6);
      (* draining returns credits and unblocks the rest *)
      for _ = 1 to 6 do
        ignore (Api.receive pb)
      done;
      Engine.sleep (Time.ms 1);
      check_int "all acked after drain" 6 !acked;
      check_int "inbox drained" 0 (Sim.Channel.length pb.State.inbox))

(* ------------------------------------------------------------------ *)
(* Admission control and doorbell batching                             *)
(* ------------------------------------------------------------------ *)

(* With a doorbell cost split out of c_msg the service loop itself pays
   for each wakeup, so a burst outruns the controller and the syscall
   queue fills; beyond ctrl_queue_bound the controller sheds new work
   with the typed, retryable Overloaded error instead of queueing
   without bound. *)
let test_overload_shed_and_recovery () =
  let config =
    {
      Fractos_net.Config.default with
      c_doorbell = Time.us 5;
      ctrl_queue_bound = 4;
    }
  in
  Tb.run ~config (fun tb ->
      let a = Tb.add_host tb "alpha" in
      let ca = Tb.add_ctrl tb ~on:a in
      let p = Tb.add_proc tb ~on:a ~ctrl:ca "p" in
      let shed0 =
        Fractos_obs.Metrics.counter_value ca.State.cm.State.cm_overloads
      in
      let ok = ref 0 and shed = ref 0 and done_ = ref 0 in
      let n = 64 in
      for _ = 1 to n do
        Engine.spawn (fun () ->
            (match Api.null p with
            | Ok () -> incr ok
            | Error Error.Overloaded -> incr shed
            | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e));
            incr done_)
      done;
      Engine.sleep (Time.ms 5);
      check_int "every syscall completed or shed" n !done_;
      check_bool (Printf.sprintf "some succeeded (%d)" !ok) true (!ok > 0);
      check_bool (Printf.sprintf "some shed (%d)" !shed) true (!shed > 0);
      check_int "sheds counted" !shed
        (Fractos_obs.Metrics.counter_value ca.State.cm.State.cm_overloads
        - shed0);
      (* once the burst has drained the controller accepts work again *)
      Alcotest.check (result_t Alcotest.unit) "recovers" (Ok ()) (Api.null p))

(* Same doorbell cost, bigger batch: one wakeup's doorbell covers up to
   ctrl_batch queued messages, so a fixed burst finishes sooner. *)
let test_batching_coalesces_doorbell () =
  let makespan batch =
    let config =
      {
        Fractos_net.Config.default with
        c_doorbell = Time.us 2;
        ctrl_batch = batch;
      }
    in
    Tb.run ~config (fun tb ->
        let a = Tb.add_host tb "alpha" in
        let ca = Tb.add_ctrl tb ~on:a in
        let p = Tb.add_proc tb ~on:a ~ctrl:ca "p" in
        ignore ca;
        let n = 32 in
        let done_ = ref 0 in
        let iv = Ivar.create () in
        for _ = 1 to n do
          Engine.spawn (fun () ->
              ok_exn (Api.null p);
              incr done_;
              if !done_ = n then Ivar.fill iv ())
        done;
        Ivar.await iv;
        Engine.now ())
  in
  let serial = makespan 1 in
  let batched = makespan 16 in
  check_bool
    (Printf.sprintf "batched burst faster (%d < %d)" batched serial)
    true (batched < serial)

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

(* Copy integrity for arbitrary sizes (crosses the chunking boundary). *)
let prop_copy_integrity =
  QCheck.Test.make ~name:"memory_copy integrity at any size" ~count:20
    QCheck.(int_range 1 100_000)
    (fun n ->
      Tb.run (fun tb ->
          let pa, pb, _, _ = two_node_setup tb in
          let src_buf = Process.alloc pa n in
          let g = Prng.create ~seed:n in
          Prng.fill_bytes g src_buf.Membuf.data;
          let dst_buf = Process.alloc pb n in
          let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
          let dst =
            Tb.grant ~src:pb ~dst:pa
              (ok_exn (Api.memory_create pb dst_buf Perms.rw))
          in
          ok_exn (Api.memory_copy pa ~src ~dst);
          Bytes.equal src_buf.Membuf.data dst_buf.Membuf.data))

(* Copy integrity across the engine's knob space: any (size, window,
   streams) combination must deliver the same bytes, including the
   out-of-order multi-stream arrivals the reorder buffer absorbs. *)
let prop_copy_integrity_knobs =
  QCheck.Test.make ~name:"memory_copy integrity at any window/streams"
    ~count:15
    QCheck.(
      triple (int_range 1 100_000) (int_range 1 16) (int_range 1 8))
    (fun (n, window, streams) ->
      ignore (timed_copy ~window ~streams n);
      (* byte equality is checked (and fails the test) inside timed_copy *)
      true)

(* Derivation never widens permissions. *)
let prop_diminish_monotone =
  let perm_gen =
    QCheck.Gen.oneofl [ Perms.rw; Perms.ro; Perms.wo; Perms.none ]
  in
  QCheck.Test.make ~name:"diminish never adds rights" ~count:30
    (QCheck.make
       QCheck.Gen.(pair perm_gen perm_gen))
    (fun (base, drop) ->
      let derived = Perms.drop base ~drop in
      Perms.subset derived base)

(* Args codec roundtrip. *)
let prop_args_int_roundtrip =
  QCheck.Test.make ~name:"Args int codec roundtrip" ~count:100 QCheck.int
    (fun x -> Args.to_int (Args.of_int x) = x)

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "fractos_core"
    [
      ( "plumbing",
        [
          Alcotest.test_case "null roundtrip" `Quick test_null_roundtrip;
          Alcotest.test_case "null latency (Table 3 CPU)" `Quick
            test_null_latency_close_to_paper;
          Alcotest.test_case "null latency (Table 3 sNIC)" `Quick
            test_null_latency_snic_higher;
          Alcotest.test_case "unattached process" `Quick test_unattached_process;
          Alcotest.test_case "invalid cid" `Quick test_invalid_cid;
        ] );
      ( "memory",
        [
          Alcotest.test_case "create+copy local" `Quick
            test_memory_create_and_copy_local;
          Alcotest.test_case "copy cross node" `Quick
            test_memory_copy_cross_node;
          Alcotest.test_case "copy large chunked" `Quick
            test_memory_copy_large_chunked;
          Alcotest.test_case "async copies overlap" `Quick
            test_memory_copy_async_overlap;
          Alcotest.test_case "copy perms" `Quick test_memory_copy_perms;
          Alcotest.test_case "copy bounds" `Quick test_memory_copy_bounds;
          Alcotest.test_case "create bounds" `Quick test_memory_create_bounds;
          qtest prop_copy_integrity;
        ] );
      ( "pipelined copy",
        [
          Alcotest.test_case "single chunk" `Quick
            test_copy_pipelined_single_chunk;
          Alcotest.test_case "2x faster on 100G fabric" `Quick
            test_copy_pipelined_faster_on_fast_fabric;
          Alcotest.test_case "default knobs identical" `Quick
            test_copy_pipelined_default_knobs_identical;
          Alcotest.test_case "decoupled from invokes" `Quick
            test_copy_pipelined_decoupled_from_invokes;
          qtest prop_copy_integrity_knobs;
        ] );
      ( "diminish",
        [
          Alcotest.test_case "extent write-through" `Quick
            test_diminish_extent_and_write_through;
          Alcotest.test_case "drops perms" `Quick test_diminish_drops_perms;
          Alcotest.test_case "bounds" `Quick test_diminish_bounds;
          Alcotest.test_case "nested views" `Quick test_diminish_of_diminish;
          Alcotest.test_case "remote owner" `Quick test_diminish_remote_owner;
          qtest prop_diminish_monotone;
        ] );
      ( "requests",
        [
          Alcotest.test_case "local invoke" `Quick test_request_local_invoke;
          Alcotest.test_case "remote invoke" `Quick test_request_remote_invoke;
          Alcotest.test_case "cap delegation on invoke" `Quick
            test_request_cap_delegation_on_invoke;
          Alcotest.test_case "refinement order" `Quick
            test_request_refinement_order;
          Alcotest.test_case "three-controller chain" `Quick
            test_request_three_controller_chain;
          Alcotest.test_case "sync RPC pattern" `Quick test_sync_rpc_pattern;
          Alcotest.test_case "invoke memory rejected" `Quick
            test_invoke_memory_cap_rejected;
          Alcotest.test_case "dead provider" `Quick test_invoke_dead_provider;
          qtest prop_args_int_roundtrip;
        ] );
      ( "revocation",
        [
          Alcotest.test_case "revoke then use" `Quick test_revoke_then_use;
          Alcotest.test_case "revtree child independent" `Quick
            test_revtree_child_independent;
          Alcotest.test_case "parent kills children" `Quick
            test_revoke_parent_kills_children;
          Alcotest.test_case "diminished view dies with parent" `Quick
            test_revoke_diminished_view_parent;
          Alcotest.test_case "cleanup removes entries" `Quick
            test_cleanup_removes_foreign_entries;
          Alcotest.test_case "derived dies with base" `Quick
            test_derived_request_dies_with_base;
        ] );
      ( "failure",
        [
          Alcotest.test_case "controller unreachable" `Quick
            test_controller_fail_unreachable;
          Alcotest.test_case "stale after restart" `Quick
            test_controller_restart_stale;
          Alcotest.test_case "restart serves again" `Quick
            test_controller_restart_serves_new_procs;
          Alcotest.test_case "syscall to failed ctrl" `Quick
            test_syscall_to_failed_controller;
          Alcotest.test_case "process failure invalidates memory" `Quick
            test_process_failure_invalidates_memory;
          Alcotest.test_case "node failure" `Quick test_node_failure;
          Alcotest.test_case "node failure, remote ctrl" `Quick
            test_node_failure_remote_ctrl;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "footprint report" `Quick (fun () ->
              Tb.run (fun tb ->
                  let pa, pb, _, cb = two_node_setup tb in
                  ignore pa;
                  let r0 = Controller.memory_report cb in
                  check_int "one proc = 64MiB buffers" (64 * 1024 * 1024)
                    r0.Controller.mr_proc_buffers;
                  check_int "one peer" (64 * 1024 * 1024)
                    r0.Controller.mr_peer_buffers;
                  (* objects and capabilities grow the footprint *)
                  let _ = ok_exn (Api.request_create pb ~tag:"x" ()) in
                  let r1 = Controller.memory_report cb in
                  check_bool "object accounted" true
                    (r1.Controller.mr_objects > r0.Controller.mr_objects);
                  check_bool "capability accounted" true
                    (r1.Controller.mr_capspace > r0.Controller.mr_capspace)));
        ] );
      ( "quota-tracking",
        [
          Alcotest.test_case "capspace quota" `Quick test_capspace_quota;
          Alcotest.test_case "refcount cleanup" `Quick
            test_track_delegations_cleanup;
          Alcotest.test_case "tracking critical-path cost" `Quick
            test_track_delegations_critical_path_cost;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "receive on revoke" `Quick
            test_monitor_receive_on_revoke;
          Alcotest.test_case "delegate counts" `Quick
            test_monitor_delegate_counts;
          Alcotest.test_case "multiple clients" `Quick
            test_monitor_delegate_multiple_clients;
          Alcotest.test_case "failure translation" `Quick
            test_monitor_failure_translation;
          Alcotest.test_case "client death" `Quick
            test_monitor_delegate_client_death;
        ] );
      ( "congestion",
        [ Alcotest.test_case "window backpressure" `Quick test_congestion_window ] );
      ( "admission",
        [
          Alcotest.test_case "overload shed + recovery" `Quick
            test_overload_shed_and_recovery;
          Alcotest.test_case "doorbell batching coalesces" `Quick
            test_batching_coalesces_doorbell;
        ] );
    ]
