(* Host cost of each layer, timed from outside through its public entry
   points, one operation shape at a time. Every timing runs [reps]
   batches and reports the fastest batch's ns/op (the least disturbed by
   the rest of the machine), the spread (slowest - fastest) / fastest,
   and words allocated per op. *)

open Fractos_sim
module Config = Fractos_net.Config
module Fabric = Fractos_net.Fabric
module Node = Fractos_net.Node
module Stats = Fractos_net.Stats
module Tb = Fractos_testbed.Testbed
module Core = Fractos_core
module Api = Fractos_core.Api
module Membuf = Fractos_core.Membuf
module Metrics = Fractos_obs.Metrics
module Retry = Fractos_fault.Retry
module Router = Fractos_services.Router
module Faceverify = Fractos_services.Faceverify
module Gpu = Fractos_device.Gpu
module Nvme = Fractos_device.Nvme
module Facedata = Fractos_workloads.Facedata

type timing = { ns : float; spread : float; words : float }

let reps = 7

(* [time ~ops f]: [f ()] performs [ops] operations. *)
let time ~ops f =
  let samples =
    List.init reps (fun _ ->
        let w0 = Common.words () in
        let t0 = Common.now () in
        f ();
        let t1 = Common.now () in
        let w1 = Common.words () in
        ((t1 -. t0) *. 1e9 /. float_of_int ops, (w1 -. w0) /. float_of_int ops))
  in
  let ns = List.map fst samples in
  let lo = List.fold_left Float.min Float.infinity ns in
  let hi = List.fold_left Float.max 0. ns in
  {
    ns = lo;
    spread = (hi -. lo) /. lo;
    words = List.fold_left Float.min Float.infinity (List.map snd samples);
  }

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Core.Error.to_string e)

(* --- sim ------------------------------------------------------------- *)

(* One event = a sleep or a yield: suspend, pass through the scheduler,
   resume. *)
let event () =
  let k = 100_000 in
  Engine.run (fun () ->
      time ~ops:(2 * k) (fun () ->
          for _ = 1 to k do
            Engine.sleep 1;
            Engine.yield ()
          done))

(* One push + one pop with 1000 entries queued. *)
let heap () =
  let k = 100_000 in
  let h = Heap.create () in
  for i = 0 to 999 do
    Heap.push h ~time:(i * 7919 mod 1000) ~seq:i ()
  done;
  let seq = ref 1000 in
  time ~ops:k (fun () ->
      for _ = 1 to k do
        match Heap.pop h with
        | Some (t, _, ()) ->
          incr seq;
          Heap.push h ~time:(t + 1000) ~seq:!seq ()
        | None -> assert false
      done)

(* One send -> recv hop between two fibers (a ping-pong is two hops). *)
let channel () =
  let k = 50_000 in
  Engine.run (fun () ->
      let ping = Channel.create () and pong = Channel.create () in
      Engine.spawn (fun () ->
          while true do
            Channel.send pong (Channel.recv ping)
          done);
      time ~ops:(2 * k) (fun () ->
          for i = 1 to k do
            Channel.send ping i;
            ignore (Channel.recv pong)
          done))

let resource () =
  let k = 200_000 in
  Engine.run (fun () ->
      let r = Resource.create () in
      time ~ops:k (fun () ->
          for _ = 1 to k do
            ignore (Resource.reserve r ~duration:10)
          done))

(* --- net ------------------------------------------------------------- *)

(* One 64-byte Fabric.send, including running its delivery. Local: both
   ends on one node (a process and its controller); remote: two hosts. *)
let send ~remote =
  let k = 50_000 in
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let a = Fabric.add_node fab ~name:"a" Node.Host_cpu in
      let b = if remote then Fabric.add_node fab ~name:"b" Node.Host_cpu else a in
      time ~ops:k (fun () ->
          let left = ref k in
          let all_done = Ivar.create () in
          for _ = 1 to k do
            Fabric.send fab ~src:a ~dst:b ~size:64 (fun () ->
                decr left;
                if !left = 0 then Ivar.fill all_done ())
          done;
          Ivar.await all_done))

(* --- core ------------------------------------------------------------ *)

let messages tb = (Stats.census (Fabric.stats tb.Tb.fabric)).Stats.messages

(* Fabric messages one [op] sends, counted on a fresh testbed. *)
let msgs_per tb op =
  let m0 = messages tb in
  op ();
  messages tb - m0

(* Api.null: a syscall round trip doing nothing. Returns the timing and
   the fabric messages one call sends. *)
let null () =
  let k = 10_000 in
  Tb.run (fun tb ->
      let h = Tb.add_host tb "h" in
      let c = Tb.add_ctrl tb ~on:h in
      let p = Tb.add_proc tb ~on:h ~ctrl:c "p" in
      let per = msgs_per tb (fun () -> ok "null" (Api.null p)) in
      (time ~ops:k (fun () ->
           for _ = 1 to k do
             ok "null" (Api.null p)
           done),
        per))

(* request_invoke of a warmed local Request, translation cache on or off. *)
let invoke ~tcache =
  let k = 5_000 in
  Tb.run ~config:{ Config.default with translation_cache = tcache } (fun tb ->
      let h = Tb.add_host tb "h" in
      let c = Tb.add_ctrl tb ~on:h in
      let server = Tb.add_proc tb ~on:h ~ctrl:c "server" in
      let client = Tb.add_proc tb ~on:h ~ctrl:c "client" in
      Engine.spawn (fun () ->
          while true do
            ignore (Api.receive server)
          done);
      let svc = ok "create" (Api.request_create server ~tag:"svc" ()) in
      let cid = Tb.grant ~src:server ~dst:client svc in
      ok "invoke" (Api.request_invoke client cid);
      time ~ops:k (fun () ->
          for _ = 1 to k do
            ok "invoke" (Api.request_invoke client cid)
          done))

(* Encode + decode of a request message with two immediates and one
   capability. *)
let codec () =
  let k = 50_000 in
  let target = { Core.State.a_ctrl = 1; a_epoch = 0; a_oid = 42 } in
  let imms = [ Core.Args.of_int 1; Core.Args.of_int 2 ] in
  let caps = [ ({ target with Core.State.a_oid = 43 }, false) ] in
  let buf = Buffer.create 256 in
  time ~ops:k (fun () ->
      for _ = 1 to k do
        Buffer.clear buf;
        Core.Codec.encode_request buf ~tag:"svc" ~target ~imms ~caps;
        ignore (Core.Codec.decode_request (Buffer.contents buf) 0)
      done)

(* The capability writes pd makes per request: memory_create of a local
   buffer plus request_derive of a Request with one immediate. *)
let derive () =
  let k = 5_000 in
  Tb.run ~config:{ Config.default with capspace_quota = 1 lsl 20 } (fun tb ->
      let h = Tb.add_host tb "h" in
      let c = Tb.add_ctrl tb ~on:h in
      let p = Tb.add_proc tb ~on:h ~ctrl:c "p" in
      let mb = Membuf.create ~node:h 64 in
      let root = ok "create" (Api.request_create p ~tag:"root" ()) in
      time ~ops:k (fun () ->
          for _ = 1 to k do
            ignore (ok "memory_create" (Api.memory_create p mb Core.Perms.rw));
            ignore
              (ok "derive" (Api.request_derive p root ~imms:[ Core.Args.of_int 1 ] ()))
          done))

(* memory_copy of [bytes], per bounce chunk. Local: the caller copies
   between two of its own buffers (faceverify's probe upload); remote: a
   third party copies between buffers on two other hosts (pd's KV pull).
   Returns the timing, fabric messages per chunk, and chunks per copy. *)
let copy ~bytes ~remote =
  let k = 50 in
  Tb.run (fun tb ->
      let host name =
        let n = Tb.add_host tb name in
        (n, Tb.add_ctrl tb ~on:n)
      in
      let ((hc, cc) as caller) = host "caller" in
      let (hs, cs), (hd, cd) = if remote then (host "src", host "dst") else (caller, caller) in
      let p = Tb.add_proc tb ~on:hc ~ctrl:cc "caller" in
      let owner h c name = if remote then Tb.add_proc tb ~on:h ~ctrl:c name else p in
      let region proc node =
        let cid = ok "memory_create" (Api.memory_create proc (Membuf.create ~node bytes) Core.Perms.rw) in
        if proc == p then cid else Tb.grant ~src:proc ~dst:p cid
      in
      let src = region (owner hs cs "src") hs in
      let dst = region (owner hd cd "dst") hd in
      let chunk = Config.default.Config.bounce_chunk in
      let chunks = (bytes + chunk - 1) / chunk in
      let per = msgs_per tb (fun () -> ok "copy" (Api.memory_copy p ~src ~dst)) in
      ( time ~ops:(k * chunks) (fun () ->
            for _ = 1 to k do
              ok "copy" (Api.memory_copy p ~src ~dst)
            done),
        float_of_int per /. float_of_int chunks ))

(* --- device ---------------------------------------------------------- *)

(* The faceverify kernel over one batch of 64 4-KiB images. *)
let gpu_kernel () =
  let k = 100 in
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let node = Fabric.add_node fab ~name:"gpu" Node.Host_cpu in
      let gpu = Gpu.create ~node ~config:Config.default ~mem_bytes:(1 lsl 26) in
      Gpu.load_kernel gpu (Faceverify.kernel ~config:Config.default);
      let alloc n = match Gpu.alloc gpu n with Ok b -> b | Error e -> failwith e in
      let bufs = [ alloc (64 * 4096); alloc (64 * 4096); alloc 64 ] in
      time ~ops:k (fun () ->
          for _ = 1 to k do
            match
              Gpu.launch gpu ~name:Faceverify.kernel_name ~items:64 ~bufs
                ~imms:[ 64; 4096 ]
            with
            | Ok () -> ()
            | Error e -> failwith e
          done))

let nvme_read () =
  let k = 5_000 in
  Engine.run (fun () ->
      let fab = Fabric.create () in
      let node = Fabric.add_node fab ~name:"ssd" Node.Host_cpu in
      let ssd = Nvme.create ~node ~config:Config.default ~capacity:(1 lsl 24) in
      let vol = match Nvme.create_volume ssd ~size:(1 lsl 20) with Ok v -> v | Error e -> failwith e in
      time ~ops:k (fun () ->
          for i = 1 to k do
            match Nvme.read ssd vol ~off:(i mod 256 * 4096) ~len:4096 with
            | Ok _ -> ()
            | Error e -> failwith e
          done))

(* --- services, obs, fault --------------------------------------------- *)

(* One least-loaded pick over pd's two decode instances. *)
let router_pick () =
  let k = 1_000_000 in
  let r = Router.create ~policy:Router.Least_loaded ~backlog:(fun i -> i land 1) 2 in
  time ~ops:k (fun () ->
      for i = 1 to k do
        ignore (Router.pick r ~key:(i land 7))
      done)

(* One counter increment plus one histogram observation. *)
let metric_update () =
  let k = 1_000_000 in
  let c = Metrics.counter ~node:"perfbench" "perfbench.ops" in
  let h = Metrics.histogram ~node:"perfbench" "perfbench.lat" in
  time ~ops:k (fun () ->
      for i = 1 to k do
        Metrics.incr c;
        Metrics.observe h i
      done)

(* Fault.Retry.run around an operation that succeeds first time — what
   every invoke pays. *)
let retry () =
  let k = 20_000 in
  Engine.run (fun () ->
      time ~ops:k (fun () ->
          for _ = 1 to k do
            ignore (Retry.run (fun () -> Ok ()))
          done))

(* --- workloads --------------------------------------------------------- *)

(* faceverify's database: 16384 images of 4 KiB. *)
let facedata_db_s () =
  let t0 = Common.now () in
  ignore (Facedata.db ~img_size:4096 ~n:16_384);
  Common.now () -. t0
