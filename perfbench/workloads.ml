(* The three benchmark workloads. Each one is a pure input generator
   (everything random is drawn from the seed here, before any timing)
   plus a function that stands up the testbed, populates it, warms it up
   and hands back a [plan]: the open-loop schedule and the two request
   functions the measured phases call. See perfbench/README.md for why
   each workload exists and what its parameters are. *)

open Fractos_sim
module Config = Fractos_net.Config
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module Api = Fractos_core.Api
module Error = Fractos_core.Error
module Retry = Fractos_fault.Retry
module Svc = Fractos_services.Svc
module Faceverify = Fractos_services.Faceverify
module Facedata = Fractos_workloads.Facedata
module Pd = Fractos_workloads.Pd

type plan = {
  due : int array;  (** open-loop due offsets from phase start, ns *)
  open_req : int -> bool;  (** the i-th open-loop request; true = Ok *)
  clients : int;  (** closed loop: requests kept in flight *)
  closed_n : int;  (** closed loop: requests in total *)
  closed_req : client:int -> int -> bool;
  ttft : int array option;
      (** time to first token of each open-loop request (pd only) *)
}

type t = {
  name : string;
  config : Config.t;
  params : (string * string) list;  (** stated parameters, as printed *)
  copy : int * bool;
      (** the memory_copy shape the per-layer timing uses: bytes, and
          whether it is a third-party copy across hosts *)
  prepare : seed:int -> Tb.t -> fail:(string -> unit) -> unit -> plan;
      (** [prepare ~seed] generates the inputs; applying the result to a
          testbed builds the topology; the final [()] populates and warms
          up. [fail] records a correctness mismatch. *)
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Exactly one in [every] of [n] flags set, at seeded positions: the
   stated mix holds in every input set instead of only on average. *)
let one_in rng ~every n = shuffle rng (Array.init n (fun i -> i mod every = 0))

(* Open-loop arrivals at exactly [rate] req/s: the [n] gaps are the
   exponential quantiles of a stratified uniform grid, in seeded order.
   The gap distribution is Poisson's; only the realised mean rate no
   longer varies from one input set to the next. *)
let arrivals rng ~rate ~n =
  let mean = 1e9 /. rate in
  let gaps =
    Array.init n (fun i ->
        let u = (float_of_int i +. Prng.float rng 1.) /. float_of_int n in
        max 1 (int_of_float (-.mean *. log (1. -. u))))
  in
  let t = ref 0 in
  Array.map
    (fun g ->
      t := !t + g;
      !t)
    (shuffle rng gaps)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Error.to_string e)

(* --- invoke: the control plane, null Requests only ------------------ *)

let invoke_shards = 2
let invoke_rate = 1_200_000. (* per shard *)
let invoke_open_n = 2_000 (* per shard *)
let invoke_inflight = 64 (* per shard *)
let invoke_closed_n = 4_000 (* per shard *)
let invoke_cross_every = 32

(* The fast-path knee knobs of the cluster experiment: doorbell batching
   and the translation cache on a bounded queue, with shard placement. *)
let invoke_config =
  {
    Config.default with
    c_msg = 190;
    c_doorbell = 100;
    ctrl_batch = 16;
    translation_cache = true;
    ctrl_queue_bound = 256;
    shard_placement = true;
  }

let invoke =
  let prepare ~seed =
    let rng = Prng.create ~seed in
    let n_open = invoke_shards * invoke_open_n in
    let n_closed = invoke_shards * invoke_closed_n in
    let due = arrivals rng ~rate:(invoke_rate *. float invoke_shards) ~n:n_open in
    let open_shard = shuffle rng (Array.init n_open (fun i -> i mod invoke_shards)) in
    let cross = one_in rng ~every:invoke_cross_every in
    let open_cross = cross n_open and closed_cross = cross n_closed in
    fun tb ~fail:_ ->
      let hosts =
        List.init invoke_shards (fun i -> Tb.add_host tb (Printf.sprintf "host%d" i))
      in
      let ctrls = List.map (fun h -> Tb.add_ctrl tb ~on:h) hosts in
      let proc role =
        Array.of_list
          (List.map2 (fun h c -> Tb.add_proc tb ~on:h ~ctrl:c role) hosts ctrls)
      in
      let servers = proc "server" and clients = proc "client" in
      Tb.shard_all tb;
      fun () ->
        Array.iter
          (fun server ->
            Engine.spawn (fun () ->
                let rec loop () =
                  ignore (Api.receive server);
                  loop ()
                in
                loop ()))
          servers;
        let svcs =
          Array.map
            (fun s -> ok_or_fail "request_create" (Api.request_create s ~tag:"svc" ()))
            servers
        in
        (* each client holds its own shard's service and its neighbour's *)
        let target =
          Array.init invoke_shards (fun i ->
              let j = (i + 1) mod invoke_shards in
              ( Tb.grant ~src:servers.(i) ~dst:clients.(i) svcs.(i),
                Tb.grant ~src:servers.(j) ~dst:clients.(i) svcs.(j) ))
        in
        let invoke shard cross =
          let own, neighbour = target.(shard) in
          let svc = if cross then neighbour else own in
          Result.is_ok (Retry.run (fun () -> Api.request_invoke clients.(shard) svc))
        in
        (* warm-up: fills the translation memo and the directory cache *)
        for i = 0 to invoke_shards - 1 do
          if not (invoke i false && invoke i true) then failwith "invoke warm-up failed"
        done;
        {
          due;
          open_req = (fun i -> invoke open_shard.(i) open_cross.(i));
          clients = invoke_shards * invoke_inflight;
          closed_n = n_closed;
          closed_req =
            (fun ~client i -> invoke (client mod invoke_shards) closed_cross.(i));
          ttft = None;
        }
  in
  {
    name = "invoke";
    config = invoke_config;
    copy = (Config.default.Config.bounce_chunk, false);
    params =
      [
        ("shards", string_of_int invoke_shards);
        ("open_rate_per_shard", Printf.sprintf "%.0f req/s" invoke_rate);
        ("open_n", string_of_int (invoke_shards * invoke_open_n));
        ("inflight_per_shard", string_of_int invoke_inflight);
        ("closed_n", string_of_int (invoke_shards * invoke_closed_n));
        ("cross_shard", Printf.sprintf "1 in %d, via Fault.Retry" invoke_cross_every);
        ("capspace_quota", string_of_int invoke_config.Config.capspace_quota);
      ];
    prepare;
  }

(* --- faceverify: the paper's end-to-end app ---------------------------- *)

let fv_img_size = 4096
let fv_images = 16_384
let fv_batch = 64
let fv_impostor_every = 8
let fv_rate = 300.
let fv_open_n = 3_000
let fv_inflight = 8
let fv_closed_n = 400
let fv_pool = 32 (* distinct probe batches, generated up front *)

(* Every request mints capabilities that no Api call can drop, so a run
   of a few thousand requests needs headroom over the default quota. *)
let fv_config = { Config.default with capspace_quota = 1 lsl 20 }

let faceverify =
  let prepare ~seed =
    let rng = Prng.create ~seed in
    let pool =
      Array.init fv_pool (fun _ ->
          let start_id = Prng.int rng (fv_images - fv_batch) in
          ( start_id,
            Facedata.probe_batch ~img_size:fv_img_size ~start_id ~batch:fv_batch
              ~impostor_every:fv_impostor_every ))
    in
    let pick n = Array.init n (fun _ -> Prng.int rng fv_pool) in
    let open_pick = pick fv_open_n and closed_pick = pick fv_closed_n in
    let due = arrivals rng ~rate:fv_rate ~n:fv_open_n in
    let expected =
      Facedata.expected_matches ~batch:fv_batch ~impostor_every:fv_impostor_every
    in
    fun tb ~fail ->
      let c = Cluster.make ~placement:Tb.Ctrl_cpu ~extent_size:(fv_images * fv_img_size) tb in
      fun () ->
        let db = Facedata.db ~img_size:fv_img_size ~n:fv_images in
        ok_or_fail "populate_db"
          (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap ~name:"facedb"
             ~content:db);
        let fv =
          ok_or_fail "faceverify setup"
            (Faceverify.setup c.Cluster.app ~fs:c.Cluster.fs_cap
               ~gpu_alloc:c.Cluster.gpu_alloc_cap ~gpu_load:c.Cluster.gpu_load_cap
               ~db_name:"facedb" ~img_size:fv_img_size ~max_batch:fv_batch
               ~depth:fv_inflight)
        in
        let verify k =
          let start_id, probes = pool.(k) in
          match Faceverify.verify fv ~start_id ~batch:fv_batch ~probes with
          | Ok flags ->
            if not (Bytes.equal flags expected) then
              fail (Printf.sprintf "faceverify: wrong match flags for ids %d.." start_id);
            true
          | Error e ->
            fail ("faceverify: " ^ Error.to_string e);
            false
        in
        if not (verify 0 && verify 1) then failwith "faceverify warm-up failed";
        {
          due;
          open_req = (fun i -> verify open_pick.(i));
          clients = fv_inflight;
          closed_n = fv_closed_n;
          closed_req = (fun ~client:_ i -> verify closed_pick.(i));
          ttft = None;
        }
  in
  {
    name = "faceverify";
    config = fv_config;
    copy = (fv_batch * fv_img_size, false);
    params =
      [
        ("placement", "Ctrl_cpu");
        ("images", Printf.sprintf "%d x %d B" fv_images fv_img_size);
        ("batch", string_of_int fv_batch);
        ("impostor_every", string_of_int fv_impostor_every);
        ("probe_pool", string_of_int fv_pool);
        ("open_rate", Printf.sprintf "%.0f req/s" fv_rate);
        ("open_n", string_of_int fv_open_n);
        ("inflight", string_of_int fv_inflight);
        ("closed_n", string_of_int fv_closed_n);
        ("capspace_quota", string_of_int fv_config.Config.capspace_quota);
      ];
    prepare;
  }

(* --- pd: prefill/decode serving ---------------------------------------- *)

let pd_prefills = 2
let pd_decodes = 2
let pd_prefixes = 8
let pd_iters = 16
let pd_kv = 64 * 1024
let pd_kv_large = 512 * 1024
let pd_large_every = 8
let pd_rate = 5_000.
let pd_open_n = 2_000
let pd_clients = 24
let pd_closed_n = 500
let pd_timeout = Time.ms 50

(* Prefill and decode both register KV Memory objects per request, so
   the capability spaces grow with the request count (see fv_config). *)
let pd_config = { Config.default with capspace_quota = 1 lsl 20 }

let pd =
  let prepare ~seed =
    let rng = Prng.create ~seed in
    let shapes n =
      Array.map
        (fun large -> (Prng.int rng pd_prefixes, if large then pd_kv_large else pd_kv))
        (one_in rng ~every:pd_large_every n)
    in
    let open_shape = shapes pd_open_n and closed_shape = shapes pd_closed_n in
    let due = arrivals rng ~rate:pd_rate ~n:pd_open_n in
    fun tb ~fail ->
      let names =
        List.init pd_prefills (Printf.sprintf "p%d")
        @ List.init pd_decodes (Printf.sprintf "d%d")
      in
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu ("client" :: names) in
      let s_client = List.hd setups and rest = List.tl setups in
      let pool =
        Pd.deploy tb
          ~prefill:(List.filteri (fun i _ -> i < pd_prefills) rest)
          ~decode:(List.filteri (fun i _ -> i >= pd_prefills) rest)
          ()
      in
      fun () ->
        let cproc = Tb.add_proc tb ~on:s_client.Tb.node ~ctrl:s_client.Tb.ctrl "pd-client" in
        let client = Pd.attach pool (Svc.create cproc) in
        let ttft = Array.make pd_open_n 0 in
        let serve (prefix, kv_len) =
          match
            Pd.request client ~prefix ~prompt_len:(max 64 (kv_len / 256)) ~kv_len
              ~iters:pd_iters ~timeout:pd_timeout ()
          with
          | Ok o ->
            if o.Pd.o_ttft > o.Pd.o_latency then fail "pd: TTFT after completion";
            Some o
          | Error e ->
            fail ("pd: " ^ Error.to_string e);
            None
        in
        if serve (0, pd_kv) = None || serve (1, pd_kv_large) = None then
          failwith "pd warm-up failed";
        {
          due;
          open_req =
            (fun i ->
              match serve open_shape.(i) with
              | Some o ->
                ttft.(i) <- o.Pd.o_ttft;
                true
              | None -> false);
          clients = pd_clients;
          closed_n = pd_closed_n;
          closed_req = (fun ~client:_ i -> serve closed_shape.(i) <> None);
          ttft = Some ttft;
        }
  in
  {
    name = "pd";
    config = pd_config;
    copy = (pd_kv, true);
    params =
      [
        ("prefill_instances", string_of_int pd_prefills);
        ("decode_instances", string_of_int pd_decodes);
        ("prefixes", string_of_int pd_prefixes);
        ("decode_iters", string_of_int pd_iters);
        ( "kv_bytes",
          Printf.sprintf "%d, 1 in %d at %d" pd_kv pd_large_every pd_kv_large );
        ("open_rate", Printf.sprintf "%.0f req/s" pd_rate);
        ("open_n", string_of_int pd_open_n);
        ("closed_clients", string_of_int pd_clients);
        ("closed_n", string_of_int pd_closed_n);
        ("router_policy", pd_config.Config.router_policy);
        ("capspace_quota", string_of_int pd_config.Config.capspace_quota);
      ];
    prepare;
  }

let all = [ invoke; faceverify; pd ]
