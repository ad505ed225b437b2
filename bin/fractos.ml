(* The fractos CLI: run simulated FractOS scenarios from the command line.

   Subcommands:
     fractos run        end-to-end face-verification scenario
     fractos primitives core-primitive latencies (null op, RPC, copy)
     fractos census     network-traffic census, FractOS vs baseline
     fractos chaos      seeded fault injection against real workloads
     fractos config     print the fabric/device calibration constants *)

open Cmdliner
open Fractos_sim
module Net = Fractos_net
module Obs = Fractos_obs
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module Facedata = Fractos_workloads.Facedata
open Fractos_services

let ok_exn = Core.Error.ok_exn

let placement_conv =
  let parse = function
    | "cpu" -> Ok Tb.Ctrl_cpu
    | "snic" -> Ok Tb.Ctrl_snic
    | "shared" -> Ok Tb.Ctrl_shared
    | s -> Error (`Msg (Printf.sprintf "unknown placement %S" s))
  in
  let print fmt p =
    Format.pp_print_string fmt
      (match p with
      | Tb.Ctrl_cpu -> "cpu"
      | Tb.Ctrl_snic -> "snic"
      | Tb.Ctrl_shared -> "shared")
  in
  Arg.conv (parse, print)

let placement =
  Arg.(
    value
    & opt placement_conv Tb.Ctrl_cpu
    & info [ "p"; "placement" ] ~docv:"PLACEMENT"
        ~doc:"Controller placement: cpu, snic or shared.")

let batch =
  Arg.(
    value & opt int 16
    & info [ "b"; "batch" ] ~docv:"N" ~doc:"Images per request.")

let requests =
  Arg.(
    value & opt int 8
    & info [ "n"; "requests" ] ~docv:"N" ~doc:"Number of requests to run.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let trace =
  Arg.(
    value & opt (some int) None
    & info [ "trace" ] ~docv:"N"
        ~doc:"Print the first $(docv) network messages of the run's \
              request phase (its non-local fabric.xfer spans).")

let trace_json =
  Arg.(
    value & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace of the request phase to $(docv) \
              (open it at ui.perfetto.dev or chrome://tracing).")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the per-node metrics registry (counters, gauges, \
              syscall latency percentiles) after the run.")

let breakdown =
  Arg.(
    value & flag
    & info [ "breakdown" ]
        ~doc:"Print the per-request critical-path disaggregation-tax \
              breakdown (ctrl/fabric/queue/device/client/idle) after the \
              run.")

let audit =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:"Record the capability audit log (mint/delegate/invoke/\
              revoke/drop lifecycle events) and print a summary plus the \
              lineage of a revoked capability after the run.")

let openmetrics =
  Arg.(
    value & opt (some string) None
    & info [ "openmetrics" ] ~docv:"FILE"
        ~doc:"Write the metrics registry to $(docv) in OpenMetrics/\
              Prometheus text exposition format.")

let hist_csv =
  Arg.(
    value & opt (some string) None
    & info [ "hist-csv" ] ~docv:"FILE"
        ~doc:"Write per-histogram summary rows (count/mean/percentiles, \
              nanoseconds) to $(docv) as CSV.")

let journal =
  Arg.(
    value & flag
    & info [ "journal" ]
        ~doc:"Record the flight recorder (admissions, sheds, credit \
              stalls, cache invalidations, faults) and print a \
              post-mortem dump after the run.")

let journal_cap =
  Arg.(
    value & opt int 16_384
    & info [ "journal-cap" ] ~docv:"N"
        ~doc:"Flight-recorder ring capacity; overflow drops the oldest \
              events and is counted per severity.")

let audit_cap =
  Arg.(
    value & opt (some int) None
    & info [ "audit-cap" ] ~docv:"N"
        ~doc:"Capability audit ring capacity (default 1048576). Evicted \
              entries are counted and reported, never silently lost.")

let slo_flag =
  Arg.(
    value & flag
    & info [ "slo" ]
        ~doc:"Track a latency/error SLO over the request stream and print \
              the multi-window burn-rate report after the run.")

let top_flag =
  Arg.(
    value & flag
    & info [ "top" ]
        ~doc:"Render a periodic live dashboard (goodput, sheds, backlogs, \
              SLO burn) to stderr while the run progresses.")

let artifacts_dir =
  Arg.(
    value & opt (some string) None
    & info [ "artifacts" ] ~docv:"DIR"
        ~doc:"Save the run's observability artifacts (metrics exposition, \
              histogram CSV, span/breakdown CSVs, journal digest, rendered \
              timeline) into $(docv) for later $(b,fractos analyze) / \
              $(b,fractos diff).")

let placement_name = function
  | Tb.Ctrl_cpu -> "cpu"
  | Tb.Ctrl_snic -> "snic"
  | Tb.Ctrl_shared -> "shared"

(* ---------------- run ---------------------------------------------- *)

let run_workload =
  Arg.(
    value
    & opt string "faceverify"
    & info [ "workload" ] ~docv:"W"
        ~doc:"Scenario to run: $(b,faceverify) (end-to-end face \
              verification) or $(b,pd) (disaggregated prefill/decode \
              inference with KV-state handoff between instances).")

(* Disaggregated prefill/decode inference: the canonical cluster hosts
   prefill instances on the GPU and storage controllers and decode
   instances on the FS and GPU controllers; each seeded request runs
   prompt pass -> third-party KV copy -> streamed decode, routed by the
   configured policy, and reports time-to-first-token vs total latency. *)
let run_pd_cmd placement requests seed =
  let module Pd = Fractos_workloads.Pd in
  Obs.Metrics.reset ();
  Tb.run (fun tb ->
      let c = Cluster.make ~placement tb in
      let ctrl_on node =
        List.find
          (fun k -> Net.Node.same_machine Core.State.(k.cnode) node)
          tb.Tb.ctrls
      in
      let setup node = { Tb.node; ctrl = ctrl_on node } in
      let pool =
        Pd.deploy tb
          ~prefill:[ setup c.Cluster.gpu_node; setup c.Cluster.storage_node ]
          ~decode:[ setup c.Cluster.fs_node; setup c.Cluster.gpu_node ]
          ()
      in
      let client = Pd.attach pool c.Cluster.app in
      let rng = Prng.create ~seed in
      let cfg = Net.Fabric.config tb.Tb.fabric in
      Format.printf
        "prefill/decode disaggregation on FractOS: %d requests, 2 prefill + \
         2 decode instances, policy %s@."
        requests cfg.Net.Config.router_policy;
      let ttfts = ref [] and totals = ref [] in
      for r = 1 to requests do
        let prefix = Prng.int rng 4 in
        let prompt_len = 64 * (1 + Prng.int rng 4) in
        let kv_len = 256 * prompt_len in
        let iters = 2 + Prng.int rng 6 in
        match
          Pd.request client ~prefix ~prompt_len ~kv_len ~iters
            ~timeout:(Time.ms 50) ()
        with
        | Ok o ->
          ttfts := o.Pd.o_ttft :: !ttfts;
          totals := o.Pd.o_latency :: !totals;
          Format.printf
            "  request %2d: prompt %4d  kv %8d B  iters %d  p%d->d%d  ttft \
             %-10s total %s@."
            r prompt_len kv_len iters o.Pd.o_prefill o.Pd.o_decode
            (Time.to_string o.Pd.o_ttft)
            (Time.to_string o.Pd.o_latency)
        | Error e ->
          Format.printf "  request %2d: error %s@." r (Core.Error.to_string e)
      done;
      let mean = function
        | [] -> 0
        | l -> List.fold_left ( + ) 0 l / List.length l
      in
      Format.printf "@.mean ttft %s  mean total %s  (%d/%d ok)@."
        (Time.to_string (mean !ttfts))
        (Time.to_string (mean !totals))
        (List.length !totals) requests)

(* The first [n] non-local fabric.xfer spans, one line per message in
   send order: departure time, endpoints, traffic class and size. *)
let pp_network_xfers fmt n =
  let attr sp k = Option.value ~default:"" (List.assoc_opt k sp.Obs.Span.sp_attrs) in
  Obs.Span.all ()
  |> List.filter (fun sp ->
         sp.Obs.Span.sp_name = "fabric.xfer" && attr sp "local" = "false")
  |> List.filteri (fun i _ -> i < n)
  |> List.iter (fun sp ->
         Format.fprintf fmt "%-10s %-12s -> %-12s %-7s %6sB@."
           (Time.to_string sp.Obs.Span.sp_start)
           (attr sp "src") (attr sp "dst")
           (if attr sp "cls" = "ctrl" then "control" else "data")
           (attr sp "bytes"))

let run_faceverify_cmd placement batch requests seed trace trace_json metrics
    breakdown audit openmetrics hist_csv journal journal_cap audit_cap slo top
    artifacts =
  let img_size = 4096 and n_images = 4096 in
  (* artifact capture needs the journal recording even when the user did
     not ask for the post-mortem dump *)
  let journal_on = journal || artifacts <> None in
  Obs.Metrics.reset ();
  if audit then begin
    (* from the very start: the lineage of a capability begins with mint
       and grant events during cluster setup *)
    Obs.Audit.reset ();
    Obs.Audit.set_capacity (Option.value ~default:(1 lsl 20) audit_cap);
    Obs.Audit.set_enabled true
  end;
  if journal_on then begin
    Obs.Journal.reset ();
    Obs.Journal.set_capacity journal_cap;
    Obs.Journal.set_enabled true
  end;
  Tb.run (fun tb ->
      let c = Cluster.make ~placement ~extent_size:(n_images * img_size) tb in
      let db = Facedata.db ~img_size ~n:n_images in
      ok_exn
        (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap
           ~name:"facedb" ~content:db);
      let fv =
        ok_exn
          (Faceverify.setup c.Cluster.app ~fs:c.Cluster.fs_cap
             ~gpu_alloc:c.Cluster.gpu_alloc_cap
             ~gpu_load:c.Cluster.gpu_load_cap ~db_name:"facedb" ~img_size
             ~max_batch:batch ~depth:2)
      in
      let rng = Prng.create ~seed in
      Format.printf "face-verification on FractOS: %d requests, batch %d@."
        requests batch;
      Net.Stats.reset (Cluster.stats c);
      (* trace the request phase only: setup (db population) would dwarf it *)
      if trace_json <> None || breakdown || artifacts <> None || trace <> None
      then begin
        Obs.Span.reset ();
        Obs.Span.set_enabled true
      end;
      let slo_t =
        if not slo then None
        else
          Some
            (Obs.Slo.create (Obs.Slo.make ~latency:(Time.ms 1) "request"))
      in
      let dash =
        if not top then None
        else
          Some
            (Obs.Dashboard.start ~interval:(Time.us 200)
               ?slos:(Option.map (fun s -> [ s ]) slo_t)
               ())
      in
      (* the dashboard's final frame must render even if a request dies *)
      Fun.protect
        ~finally:(fun () -> Option.iter Obs.Dashboard.stop dash)
        (fun () ->
          for r = 1 to requests do
            let start_id = Prng.int rng (n_images - batch) in
            let probes =
              Facedata.probe_batch ~img_size ~start_id ~batch
                ~impostor_every:5
            in
            let t0 = Engine.now () in
            let flags =
              Obs.Span.with_ ~node:"app" ~name:"request"
                ~attrs:[ ("id", string_of_int r) ]
                (fun () ->
                  ok_exn (Faceverify.verify fv ~start_id ~batch ~probes))
            in
            let latency = Engine.now () - t0 in
            Option.iter (fun s -> Obs.Slo.observe s ~latency ~ok:true) slo_t;
            let matches =
              Bytes.fold_left
                (fun acc c -> if c = '\001' then acc + 1 else acc)
                0 flags
            in
            Format.printf "  request %2d: ids %5d..%5d  %2d/%2d genuine  %s@."
              r start_id
              (start_id + batch - 1)
              matches batch (Time.to_string latency)
          done);
      (match slo_t with
      | Some s ->
        ignore (Obs.Slo.check s);
        Format.printf "@.%a" Obs.Slo.pp_report s
      | None -> ());
      Format.printf "@.%a@." Net.Stats.pp_census
        (Net.Stats.census (Cluster.stats c));
      if metrics then Format.printf "@.%a" Obs.Metrics.pp ();
      (match openmetrics with
      | Some path ->
        Obs.Openmetrics.write path;
        Format.printf "@.wrote OpenMetrics exposition to %s@." path
      | None -> ());
      (match hist_csv with
      | Some path ->
        Obs.Openmetrics.write_histograms_csv path;
        Format.printf "@.wrote histogram summary CSV to %s@." path
      | None -> ());
      if breakdown then begin
        Obs.Span.set_enabled false;
        Format.printf "@.%a" Obs.Analysis.pp_report
          (Obs.Analysis.analyze ~root_name:"request" ())
      end;
      (match trace_json with
      | Some path -> (
        Obs.Span.set_enabled false;
        try
          Obs.Export.write_chrome_trace path;
          Format.printf "@.wrote %d spans to %s@." (Obs.Span.count ()) path
        with Sys_error msg ->
          Format.eprintf "@.fractos: cannot write trace: %s@." msg;
          exit 1)
      | None -> ());
      if audit then begin
        (* teardown: revoke the app's FS service capability, so the log
           closes with the full delegate -> invoke -> revoke lineage *)
        ignore (Core.Api.cap_revoke (Svc.proc c.Cluster.app) c.Cluster.fs_cap);
        Obs.Audit.set_enabled false;
        let module Au = Obs.Audit in
        Format.printf "@.capability audit log: %d events retained (%d evicted)@."
          (Au.count ()) (Au.evicted ());
        List.iter
          (fun (k, n) -> Format.printf "  %-18s %d@." (Au.kind_name k) n)
          (Au.summary ());
        let revoked =
          List.filter
            (fun (e : Au.event) -> e.Au.au_kind = Au.Revoke)
            (Au.events ())
        in
        let interesting =
          List.filter
            (fun (e : Au.event) ->
              let l = Au.lineage ~ctrl:e.Au.au_ctrl ~oid:e.Au.au_oid in
              List.exists (fun (x : Au.event) -> x.Au.au_kind = Au.Delegate) l
              && List.exists (fun (x : Au.event) -> x.Au.au_kind = Au.Invoke) l)
            revoked
        in
        match (interesting, revoked) with
        | e :: _, _ | [], e :: _ ->
          Format.printf "@.lineage of obj(c%d.e%d.%d):@." e.Au.au_ctrl
            e.Au.au_epoch e.Au.au_oid;
          let l = Au.lineage ~ctrl:e.Au.au_ctrl ~oid:e.Au.au_oid in
          let n = List.length l in
          List.iteri
            (fun i ev ->
              if i < 10 || i >= n - 5 then
                Format.printf "  %a@." Au.pp_event ev
              else if i = 10 then
                Format.printf "  ... (%d more events) ...@." (n - 15))
            l
        | [], [] -> Format.printf "@.no revocation events recorded@."
      end;
      if journal_on then Obs.Journal.set_enabled false;
      if journal then Format.printf "@.%a" Obs.Journal.dump ();
      (match artifacts with
      | Some dir ->
        Obs.Span.set_enabled false;
        let extra =
          match slo_t with
          | Some s -> [ ("slo.txt", Format.asprintf "%a" Obs.Slo.pp_report s) ]
          | None -> []
        in
        Obs.Artifacts.save ~extra ~dir
          ~meta:
            [
              ("scenario", "run");
              ("placement", placement_name placement);
              ("batch", string_of_int batch);
              ("requests", string_of_int requests);
              ("seed", string_of_int seed);
              ("elapsed_ns", string_of_int (Engine.now ()));
            ]
          ();
        Format.printf "@.saved run artifacts to %s/@." dir
      | None -> ());
      match trace with
      | Some n ->
        Obs.Span.set_enabled false;
        Format.printf "@.first %d network messages:@.%a" n pp_network_xfers n
      | None -> ())

let run_cmd workload placement batch requests seed trace trace_json metrics
    breakdown audit openmetrics hist_csv journal journal_cap audit_cap slo top
    artifacts =
  match workload with
  | "pd" -> run_pd_cmd placement requests seed
  | "faceverify" ->
    run_faceverify_cmd placement batch requests seed trace trace_json metrics
      breakdown audit openmetrics hist_csv journal journal_cap audit_cap slo
      top artifacts
  | w ->
    Format.eprintf "fractos run: unknown workload %S (faceverify or pd)@." w;
    exit 2

(* ---------------- primitives --------------------------------------- *)

let primitives_cmd placement =
  Tb.run (fun tb ->
      let setups = Tb.nodes_with_ctrls tb placement [ "a"; "b" ] in
      let sa = List.nth setups 0 and sb = List.nth setups 1 in
      let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "pa" in
      let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "pb" in
      let time label f =
        f ();
        let t0 = Engine.now () in
        f ();
        Format.printf "%-32s %s@." label (Time.to_string (Engine.now () - t0))
      in
      time "null syscall" (fun () -> ok_exn (Core.Api.null pa));
      let svc = ok_exn (Core.Api.request_create pb ~tag:"svc" ()) in
      let svc_a = Tb.grant ~src:pb ~dst:pa svc in
      Engine.spawn (fun () ->
          let rec loop () =
            let d = Core.Api.receive pb in
            (match List.rev d.Core.State.d_caps with
            | k :: _ -> ignore (Core.Api.request_invoke pb k)
            | [] -> ());
            loop ()
          in
          loop ());
      time "cross-node RPC" (fun () ->
          let cont = ok_exn (Core.Api.request_create pa ~tag:"k" ()) in
          let call =
            ok_exn (Core.Api.request_derive pa svc_a ~caps:[ cont ] ())
          in
          ok_exn (Core.Api.request_invoke pa call);
          ignore (Core.Api.receive pa));
      let src =
        ok_exn (Core.Api.memory_create pa (Core.Process.alloc pa 65536) Core.Perms.ro)
      in
      let dst =
        Tb.grant ~src:pb ~dst:pa
          (ok_exn
             (Core.Api.memory_create pb (Core.Process.alloc pb 65536)
                Core.Perms.rw))
      in
      time "64 KiB memory_copy" (fun () ->
          ok_exn (Core.Api.memory_copy pa ~src ~dst));
      let h = ok_exn (Core.Api.cap_create_revtree pb svc) in
      time "revoke (revtree child)" (fun () ->
          ignore (Core.Api.cap_revoke pb h));
      Format.printf "@.controller footprint (node b):@.%a@."
        Core.Controller.pp_memory_report
        (Core.Controller.memory_report sb.Tb.ctrl))

(* ---------------- census ------------------------------------------- *)

let census_cmd batch =
  let img_size = 4096 and n_images = 4096 and requests = 6 in
  let module Dev = Fractos_device in
  let module B = Fractos_baselines in
  let cfg = Net.Config.default in
  let fractos () =
    Tb.run (fun tb ->
        let c = Cluster.make ~extent_size:(n_images * img_size) tb in
        let db = Facedata.db ~img_size ~n:n_images in
        ok_exn
          (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap
             ~name:"facedb" ~content:db);
        let fv =
          ok_exn
            (Faceverify.setup c.Cluster.app ~fs:c.Cluster.fs_cap
               ~gpu_alloc:c.Cluster.gpu_alloc_cap
               ~gpu_load:c.Cluster.gpu_load_cap ~db_name:"facedb" ~img_size
               ~max_batch:batch ~depth:1)
        in
        let rng = Prng.create ~seed:3 in
        Net.Stats.reset (Cluster.stats c);
        let t0 = Engine.now () in
        for _ = 1 to requests do
          let start_id = Prng.int rng (n_images - batch) in
          let probes =
            Facedata.probe_batch ~img_size ~start_id ~batch ~impostor_every:0
          in
          ignore (ok_exn (Faceverify.verify fv ~start_id ~batch ~probes))
        done;
        ( Net.Stats.census (Cluster.stats c),
          (Engine.now () - t0) / requests ))
  in
  let baseline () =
    Engine.run (fun () ->
        let fab = Net.Fabric.create () in
        let frontend =
          Net.Fabric.add_node fab ~name:"frontend" Net.Node.Host_cpu
        in
        let nfs_server = Net.Fabric.add_node fab ~name:"nfs" Net.Node.Host_cpu in
        let target = Net.Fabric.add_node fab ~name:"target" Net.Node.Wimpy_cpu in
        let gpu_node = Net.Fabric.add_node fab ~name:"gpu" Net.Node.Host_cpu in
        let ssd = Dev.Nvme.create ~node:target ~config:cfg ~capacity:(1 lsl 30) in
        let gpu =
          Dev.Gpu.create ~node:gpu_node ~config:cfg ~mem_bytes:(1 lsl 30)
        in
        Dev.Gpu.load_kernel gpu (Faceverify.kernel ~config:cfg);
        let db = Facedata.db ~img_size ~n:n_images in
        let fv =
          Result.get_ok
            (B.Faceverify_baseline.setup ~fabric:fab ~frontend ~nfs_server ~ssd
               ~gpu ~db ~img_size ~max_batch:batch ~depth:1)
        in
        let rng = Prng.create ~seed:3 in
        Net.Stats.reset (Net.Fabric.stats fab);
        let t0 = Engine.now () in
        for _ = 1 to requests do
          let start_id = Prng.int rng (n_images - batch) in
          let probes =
            Facedata.probe_batch ~img_size ~start_id ~batch ~impostor_every:0
          in
          ignore
            (Result.get_ok
               (B.Faceverify_baseline.verify fv ~start_id ~batch ~probes))
        done;
        ( Net.Stats.census (Net.Fabric.stats fab),
          (Engine.now () - t0) / requests ))
  in
  let fr, fr_lat = fractos () in
  let bl, bl_lat = baseline () in
  let pr name (c : Net.Stats.census) lat =
    Format.printf
      "%-20s msgs/req %-4d data-msgs/req %-4d bytes/req %-8d latency %s@." name
      (c.net_messages / requests)
      (c.net_data_messages / requests)
      (c.net_bytes / requests) (Time.to_string lat)
  in
  Format.printf "traffic census, batch %d, %d requests:@." batch requests;
  pr "FractOS" fr fr_lat;
  pr "baseline" bl bl_lat;
  Format.printf "reduction: %.1fx messages, %.1fx bytes, %.0f%% faster@."
    (float_of_int bl.net_messages /. float_of_int fr.net_messages)
    (float_of_int bl.net_bytes /. float_of_int fr.net_bytes)
    ((Time.to_us_f bl_lat /. Time.to_us_f fr_lat -. 1.) *. 100.)

(* ---------------- chaos -------------------------------------------- *)

(* --seeds accepts "A-B" (inclusive range) or "a,b,c". *)
let parse_seeds s =
  let bad () =
    Format.eprintf "fractos chaos: bad --seeds spec %S (want A-B or a,b,c)@."
      s;
    exit 2
  in
  match String.index_opt s '-' with
  | Some i when i > 0 -> (
    try
      let a = int_of_string (String.sub s 0 i) in
      let b = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      if b < a then bad () else List.init (b - a + 1) (fun k -> a + k)
    with _ -> bad ())
  | _ -> (
    try List.map int_of_string (String.split_on_char ',' (String.trim s))
    with _ -> bad ())

let chaos_cmd seed seeds domains faults workload clients requests journal
    journal_cap sample_keep sample_threshold_us slo top =
  let module F = Fractos_fault in
  let spec =
    match F.Spec.of_string faults with
    | Ok s -> s
    | Error msg ->
      Format.eprintf "fractos chaos: bad --faults spec: %s@." msg;
      exit 2
  in
  let workload =
    match F.Chaos.workload_of_string workload with
    | Some w -> w
    | None ->
      Format.eprintf
        "fractos chaos: unknown workload %S (faceverify, fs, mixed, copy, \
         xshard or pd)@."
        workload;
      exit 2
  in
  let sampling =
    match (sample_keep, sample_threshold_us) with
    | None, None -> None
    | keep, threshold ->
      Some
        ( Time.us (Option.value ~default:1000 threshold),
          Option.value ~default:0.01 keep )
  in
  match seeds with
  | None ->
    (* Single-seed path: print as we go. *)
    if journal then begin
      Obs.Journal.reset ();
      Obs.Journal.set_capacity journal_cap;
      Obs.Journal.set_enabled true
    end;
    let slo =
      if not slo then None
      else Some (Obs.Slo.create (Obs.Slo.make ~latency:(Time.ms 1) "chaos"))
    in
    let report =
      F.Chaos.run ~clients ~requests ~workload ?sampling ?slo ~top ~spec ~seed
        ()
    in
    List.iter print_endline (F.Chaos.to_lines report);
    (if sampling <> None then begin
       let retained = Obs.Sampler.retained () in
       let n = List.length retained in
       Printf.printf "retained traces (%d):\n" n;
       List.iteri
         (fun i (id, reason) ->
           if i < 16 then
             Printf.printf "  trace %d (%s)\n" id
               (Obs.Sampler.reason_name reason)
           else if i = 16 then Printf.printf "  ... (%d more)\n" (n - 16))
         retained;
       match Obs.Sampler.exemplars () with
       | [] -> ()
       | ex ->
         Printf.printf "exemplars (histogram bucket -> retained trace):\n";
         List.iter
           (fun (hist, _k, upper, trace) ->
             Printf.printf "  %s le=%.0fns -> trace %d\n" hist upper trace)
           ex
     end);
    if journal then begin
      Obs.Journal.set_enabled false;
      Format.printf "@.%a" Obs.Journal.dump ()
    end;
    if not (F.Chaos.passed report) then exit 1
  | Some sspec ->
    (* Multi-seed battery, fanned out over [domains] OS domains via
       Domains.map. Each task renders its seed's complete output (report,
       sampler retention, journal dump) to a string *inside* the task —
       journal and sampler state are per-domain — and the coordinator
       prints in seed order, so stdout is byte-identical for any domain
       count. *)
    let seeds = parse_seeds sspec in
    let run_one seed =
      let buf = Buffer.create 4096 in
      let line fmt =
        Printf.ksprintf
          (fun s ->
            Buffer.add_string buf s;
            Buffer.add_char buf '\n')
          fmt
      in
      if journal then begin
        Obs.Journal.reset ();
        Obs.Journal.set_capacity journal_cap;
        Obs.Journal.set_enabled true
      end;
      let slo =
        if not slo then None
        else Some (Obs.Slo.create (Obs.Slo.make ~latency:(Time.ms 1) "chaos"))
      in
      let report =
        F.Chaos.run ~clients ~requests ~workload ?sampling ?slo ~top ~spec
          ~seed ()
      in
      List.iter (fun l -> line "%s" l) (F.Chaos.to_lines report);
      (if sampling <> None then begin
         let retained = Obs.Sampler.retained () in
         let n = List.length retained in
         line "retained traces (%d):" n;
         List.iteri
           (fun i (id, reason) ->
             if i < 16 then
               line "  trace %d (%s)" id (Obs.Sampler.reason_name reason)
             else if i = 16 then line "  ... (%d more)" (n - 16))
           retained;
         match Obs.Sampler.exemplars () with
         | [] -> ()
         | ex ->
           line "exemplars (histogram bucket -> retained trace):";
           List.iter
             (fun (hist, _k, upper, trace) ->
               line "  %s le=%.0fns -> trace %d" hist upper trace)
             ex
       end);
      if journal then begin
        Obs.Journal.set_enabled false;
        Buffer.add_string buf (Format.asprintf "@.%a" Obs.Journal.dump ())
      end;
      (Buffer.contents buf, F.Chaos.passed report)
    in
    let outputs = Domains.map ~domains ~prepare:(fun () -> ()) run_one seeds in
    let all_ok = ref true in
    List.iter2
      (fun sd (out, ok) ->
        Printf.printf "=== chaos seed %d ===\n" sd;
        print_string out;
        if not ok then all_ok := false)
      seeds outputs;
    if not !all_ok then exit 1

(* ---------------- top ----------------------------------------------- *)

(* A self-contained live-dashboard scenario: a SmartNIC-placed controller
   with a bounded request queue, driven past saturation by an open-loop
   invoke workload, with the flight recorder, an SLO tracker and the
   periodic dashboard all on — the quickest way to watch admission
   control, burn rates and journal events interact. *)
let top_cmd rate requests seed interval_us =
  let module F = Fractos_fault in
  let module Loadgen = Fractos_workloads.Loadgen in
  Obs.Metrics.reset ();
  Obs.Journal.reset ();
  Obs.Journal.set_enabled true;
  let config =
    { Net.Config.default with ctrl_batch = 8; ctrl_queue_bound = 256 }
  in
  let slo =
    Obs.Slo.create
      (Obs.Slo.make ~latency:(Time.us 100) ~latency_goal:0.9
         ~windows:[ Time.us 500; Time.ms 2 ] "invoke")
  in
  Tb.run ~config (fun tb ->
      let host = Tb.add_host tb "host" in
      let ctrl = Tb.add_snic_ctrl tb ~host in
      let server = Tb.add_proc tb ~on:host ~ctrl "server" in
      let client = Tb.add_proc tb ~on:host ~ctrl "client" in
      Engine.spawn (fun () ->
          let rec loop () =
            ignore (Core.Api.receive server);
            loop ()
          in
          loop ());
      let svc = ok_exn (Core.Api.request_create server ~tag:"svc" ()) in
      let svc = Tb.grant ~src:server ~dst:client svc in
      ok_exn (Core.Api.request_invoke client svc);
      Format.printf
        "fractos top: %d invokes at %.0fk req/s offered (snic controller, \
         queue bound %d)@."
        requests (rate /. 1e3) config.Net.Config.ctrl_queue_bound;
      let dash =
        Obs.Dashboard.start
          ~interval:(Time.us interval_us)
          ~out:Format.std_formatter ~slos:[ slo ] ()
      in
      let rng = Prng.create ~seed in
      let ok = ref 0 and err = ref 0 in
      let s =
        Fun.protect
          ~finally:(fun () -> Obs.Dashboard.stop dash)
          (fun () ->
            Loadgen.run_open_loop ~rng ~rate_per_s:rate ~n:requests (fun _ ->
                let t0 = Engine.now () in
                let r =
                  F.Retry.run (fun () -> Core.Api.request_invoke client svc)
                in
                (match r with Ok () -> incr ok | Error _ -> incr err);
                Obs.Slo.observe slo
                  ~latency:(Engine.now () - t0)
                  ~ok:(Result.is_ok r)))
      in
      ignore (Obs.Slo.check slo);
      Format.printf "@.%d ok, %d failed, p99 %s@." !ok !err
        (Time.to_string s.Loadgen.p99);
      Format.printf "@.%a" Obs.Slo.pp_report slo;
      Obs.Journal.set_enabled false;
      let drops = Obs.Journal.overflowed () in
      Format.printf "@.journal: %d events recorded, %d retained, %d dropped@."
        (Obs.Journal.recorded ()) (Obs.Journal.count ()) drops;
      List.iter
        (fun (kind, n) -> Format.printf "  %-24s %d@." kind n)
        (Obs.Journal.summary ()))

(* ---------------- config ------------------------------------------- *)

let config_cmd () =
  let c = Net.Config.default in
  let open Format in
  printf "fabric:@.";
  printf "  loopback one-way     %s@." (Time.to_string c.loopback_oneway);
  printf "  wire one-way         %s@." (Time.to_string c.wire_oneway);
  printf "  PCIe extra hop       %s@." (Time.to_string c.pcie_extra);
  printf "  line rate            %d Gbps@." (c.net_bandwidth_bps / 1_000_000_000);
  printf "  PCIe/DMA bandwidth   %d Gbps@."
    (c.pcie_bandwidth_bps / 1_000_000_000);
  printf "controller cost classes (host CPU):@.";
  printf "  message handling     %s@." (Time.to_string c.c_msg);
  printf "  table lookup         %s@." (Time.to_string c.c_lookup);
  printf "  (de)serialization    %s@." (Time.to_string c.c_serialize);
  printf "  capability transfer  %s@." (Time.to_string c.c_cap_transfer);
  printf "sNIC multipliers: msg %.1fx lookup %.1fx serialize %.1fx cap %.1fx@."
    c.snic_m_msg c.snic_m_lookup c.snic_m_serialize c.snic_m_cap;
  printf "devices:@.";
  printf "  NVMe 4K read         %s, write (cached) %s, QD %d@."
    (Time.to_string c.nvme_read_latency)
    (Time.to_string c.nvme_write_latency)
    c.nvme_queue_depth;
  printf "  GPU launch           %s, face-verify %s/image@."
    (Time.to_string c.gpu_launch)
    (Time.to_string c.gpu_per_image);
  printf "copy path: chunk %d KiB, double buffering %b, hw copies %b@."
    (c.bounce_chunk / 1024) c.double_buffering c.hw_copies;
  printf "  window %d chunk(s), %d stream(s), open timeout %s@." c.copy_window
    c.copy_streams
    (Time.to_string c.copy_open_timeout);
  printf "congestion window: %d outstanding responses@." c.congestion_window

(* ---------------- topology ------------------------------------------ *)

let topology_cmd placement =
  Tb.run (fun tb ->
      let c = Cluster.make ~placement tb in
      Format.printf "canonical evaluation cluster:@.@.";
      let nodes = Net.Fabric.nodes tb.Tb.fabric in
      List.iter
        (fun (n : Net.Node.t) ->
          let attached =
            match n.Net.Node.attached_to with
            | Some h -> Printf.sprintf "  (on %s's PCIe)" h.Net.Node.name
            | None -> ""
          in
          Format.printf "  %-14s %s%s@." n.Net.Node.name
            (Net.Node.kind_to_string n.Net.Node.kind)
            attached)
        nodes;
      Format.printf
        "@.services: block adaptor + NVMe on 'storage', FS on 'fs', GPU \
         adaptor + GPU on 'gpu', app on 'app'@.";
      (* run a little traffic so the utilization report means something *)
      let app = c.Cluster.app in
      let proc = Fractos_services.Svc.proc app in
      ok_exn (Fractos_services.Fs.create app ~fs:c.Cluster.fs_cap ~name:"t" ~size:262_144);
      let h =
        ok_exn (Fractos_services.Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"t"
                  Fractos_services.Fs.Fs_rw)
      in
      let src =
        ok_exn (Core.Api.memory_create proc (Core.Process.alloc proc 262_144)
                  Core.Perms.ro)
      in
      ok_exn (Fractos_services.Fs.write app h ~off:0 ~len:262_144 ~src);
      Format.printf "@.NIC/DMA utilization after a 256 KiB FS write:@.";
      Net.Fabric.pp_utilization Format.std_formatter
        (Net.Fabric.utilization tb.Tb.fabric ~elapsed:(Engine.now ()));
      Format.printf "@.controller memory footprints:@.";
      List.iter
        (fun ctrl ->
          Format.printf "  controller %d (%s): %.1f MiB@."
            Core.State.(ctrl.ctrl_id)
            Core.State.(ctrl.cnode.Net.Node.name)
            (float_of_int (Core.Controller.memory_report ctrl).Core.Controller.mr_total
            /. 1024. /. 1024.))
        tb.Tb.ctrls)

(* ---------------- analyze ------------------------------------------- *)

(* The same fast-path knobs the loadcurve bench sweeps: sNIC controller
   at the knee, doorbell coalescing and translation caching on. The
   what-if profiler runs its virtual-speedup grid against this scenario
   so "which component dominates the tax at saturation" is answered on
   the configuration the paper's headline numbers use. *)
let knee_config () =
  {
    Net.Config.default with
    c_msg = 190;
    c_doorbell = 100;
    ctrl_batch = 16;
    translation_cache = true;
    ctrl_queue_bound = 256;
  }

(* One deterministic measurement: an open-loop invoke workload against a
   SmartNIC-placed controller, optionally with one component's service
   time scaled — the exact-virtual-speedup probe of Obs.Whatif. *)
let whatif_measure ~rate ~n ~seed ~component ~factor =
  let module F = Fractos_fault in
  let module Loadgen = Fractos_workloads.Loadgen in
  let config =
    match component with
    | None -> knee_config ()
    | Some c -> (
      match Net.Config.scale_component (knee_config ()) c factor with
      | Some cfg -> cfg
      | None ->
        Format.eprintf "fractos analyze: unknown component %S@." c;
        exit 2)
  in
  Tb.run ~config (fun tb ->
      let host = Tb.add_host tb "host" in
      let ctrl = Tb.add_snic_ctrl tb ~host in
      let server = Tb.add_proc tb ~on:host ~ctrl "server" in
      let client = Tb.add_proc tb ~on:host ~ctrl "client" in
      Engine.spawn (fun () ->
          let rec loop () =
            ignore (Core.Api.receive server);
            loop ()
          in
          loop ());
      let svc = ok_exn (Core.Api.request_create server ~tag:"svc" ()) in
      let svc = Tb.grant ~src:server ~dst:client svc in
      (* warm-up populates the translation memo *)
      ok_exn (Core.Api.request_invoke client svc);
      let rng = Prng.create ~seed in
      let ok = ref 0 in
      let s =
        Loadgen.run_open_loop ~rng ~rate_per_s:rate ~n (fun _ ->
            match F.Retry.run (fun () -> Core.Api.request_invoke client svc) with
            | Ok () -> incr ok
            | Error _ -> ())
      in
      let elapsed_s = Time.to_us_f s.Loadgen.elapsed /. 1e6 in
      {
        Obs.Whatif.m_goodput =
          (if elapsed_s > 0. then float_of_int !ok /. elapsed_s else 0.);
        m_p99_us = Time.to_us_f s.Loadgen.p99;
      })

let analyze_cmd dir whatif rate n seed factors whatif_csv =
  if whatif then begin
    Format.printf
      "what-if scenario: open-loop invoke at %.0fk req/s, %d requests, snic \
       controller, seed %d@."
      (rate /. 1e3) n seed;
    Format.printf "components: %s; speedup factors: %s@.@."
      (String.concat ", " Net.Config.components)
      (String.concat ", " (List.map (Printf.sprintf "x%.2f") factors));
    let profile =
      Obs.Whatif.profile ~components:Net.Config.components ~factors
        ~measure:(fun ~component ~factor ->
          whatif_measure ~rate ~n ~seed ~component ~factor)
    in
    Format.printf "%a" Obs.Whatif.pp profile;
    match whatif_csv with
    | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Whatif.to_csv profile);
      close_out oc;
      Format.printf "@.wrote what-if grid to %s@." path
    | None -> ()
  end
  else
    match dir with
    | None ->
      Format.eprintf
        "fractos analyze: pass an artifact DIR (from fractos run \
         --artifacts) or --whatif@.";
      exit 2
    | Some d -> (
      match Obs.Artifacts.load d with
      | Error msg ->
        Format.eprintf "fractos analyze: %s@." msg;
        exit 1
      | Ok a -> Format.printf "%a" Obs.Artifacts.pp a)

(* ---------------- diff ---------------------------------------------- *)

let diff_cmd dir_a dir_b threshold fail_on_change =
  match (Obs.Artifacts.load dir_a, Obs.Artifacts.load dir_b) with
  | Error msg, _ | _, Error msg ->
    Format.eprintf "fractos diff: %s@." msg;
    exit 1
  | Ok a, Ok b ->
    let d = Obs.Diff.diff ~threshold a b in
    Format.printf "%a" Obs.Diff.pp d;
    if fail_on_change && Obs.Diff.significant d then exit 1

(* ---------------- gate ---------------------------------------------- *)

let gate_cmd fresh baseline tolerance emit scale out =
  let load path =
    match Obs.Json.of_file path with
    | Ok j -> j
    | Error msg ->
      Format.eprintf "fractos gate: %s@." msg;
      exit 1
  in
  let fresh_j = load fresh in
  (match Obs.Gate.validate fresh_j with
  | [] -> ()
  | violations ->
    Format.eprintf "fractos gate: %s fails validation (%d violations):@." fresh
      (List.length violations);
    List.iter (Format.eprintf "  %s@.") violations;
    exit 1);
  if emit then begin
    match Obs.Gate.extract fresh_j with
    | Error msg ->
      Format.eprintf "fractos gate: %s@." msg;
      exit 1
    | Ok metrics -> (
      let s =
        Obs.Gate.emit_string ~scale ~source:(Filename.basename fresh)
          ~tolerance:
            (Option.value ~default:Obs.Gate.default_tolerance tolerance)
          metrics
      in
      match out with
      | Some path ->
        let oc = open_out path in
        output_string oc s;
        close_out oc;
        Format.printf "wrote baseline digest to %s@." path
      | None -> print_string s)
  end
  else
    match baseline with
    | None ->
      Format.eprintf "fractos gate: --baseline FILE is required (or --emit)@.";
      exit 2
    | Some b -> (
      match
        Obs.Gate.check ?tolerance ~baseline:(load b) ~fresh:fresh_j ()
      with
      | Error msg ->
        Format.eprintf "fractos gate: %s@." msg;
        exit 1
      | Ok report ->
        Format.printf "baseline %s vs fresh %s@.%a" b fresh
          Obs.Gate.pp_result report;
        if not report.Obs.Gate.r_pass then exit 1)

(* ---------------- cmdliner wiring ----------------------------------- *)

let run_t =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run an end-to-end scenario (face verification, or disaggregated \
          prefill/decode inference with --workload pd)")
    Term.(
      const run_cmd $ run_workload $ placement $ batch $ requests $ seed
      $ trace $ trace_json $ metrics $ breakdown $ audit $ openmetrics
      $ hist_csv $ journal $ journal_cap $ audit_cap $ slo_flag $ top_flag
      $ artifacts_dir)

let analyze_t =
  let dir =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:"Artifact directory written by $(b,fractos run --artifacts).")
  in
  let whatif =
    Arg.(
      value & flag
      & info [ "whatif" ]
          ~doc:"Run the causal what-if profiler: re-run the knee scenario \
                with each component's service time scaled and rank \
                components by marginal goodput gain (exact virtual \
                speedup).")
  in
  let rate =
    Arg.(
      value & opt float 1_500_000.
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Offered open-loop load for the what-if scenario. The \
                default drives the controller well past its ~890k req/s \
                knee so goodput is capacity-bound and marginal speedups \
                are visible.")
  in
  let n =
    Arg.(
      value & opt int 2000
      & info [ "n"; "requests" ] ~docv:"N"
          ~doc:"Requests per what-if measurement.")
  in
  let factors =
    Arg.(
      value
      & opt (list float) [ 0.5; 0.75 ]
      & info [ "factors" ] ~docv:"F,..."
          ~doc:"Service-time scale factors to probe (1.0 = unchanged; 0.5 \
                = component twice as fast).")
  in
  let whatif_csv =
    Arg.(
      value & opt (some string) None
      & info [ "whatif-csv" ] ~docv:"FILE"
          ~doc:"Write the full component x factor measurement grid to \
                $(docv) as CSV.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Inspect a run's saved artifacts, or run the causal what-if \
             profiler (--whatif) for marginal disaggregation-tax \
             attribution")
    Term.(
      const analyze_cmd $ dir $ whatif $ rate $ n $ seed $ factors
      $ whatif_csv)

let diff_t =
  let dir_a =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR_A" ~doc:"Baseline artifact directory.")
  in
  let dir_b =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DIR_B" ~doc:"Candidate artifact directory.")
  in
  let threshold =
    Arg.(
      value & opt float 0.10
      & info [ "threshold" ] ~docv:"F"
          ~doc:"Significance threshold as a fraction (0.10 = 10% relative \
                change; 10 share points for breakdown categories).")
  in
  let fail_on_change =
    Arg.(
      value & flag
      & info [ "fail-on-change" ]
          ~doc:"Exit 1 when any significant change is found (for CI).")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Structured A/B comparison of two runs' saved artifacts with \
             significance thresholds")
    Term.(const diff_cmd $ dir_a $ dir_b $ threshold $ fail_on_change)

let gate_t =
  let fresh =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FRESH"
          ~doc:"Freshly produced bench JSON (BENCH_loadcurve.json, \
                BENCH_copybw.json, BENCH_cluster.json or BENCH_pd.json); \
                it is validated before anything else.")
  in
  let baseline =
    Arg.(
      value & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Committed baseline digest (bench/baselines/*.json) or raw \
                bench JSON to compare against.")
  in
  let tolerance =
    Arg.(
      value & opt (some float) None
      & info [ "tolerance" ] ~docv:"F"
          ~doc:"Allowed fractional regression (default: the baseline's \
                embedded tolerance, else 0.10).")
  in
  let emit =
    Arg.(
      value & flag
      & info [ "emit" ]
          ~doc:"Emit a baseline digest from FRESH instead of checking it.")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F"
          ~doc:"With --emit: multiply every metric by $(docv). The gate's \
                negative self-test emits an inflated baseline to prove the \
                check fails on degradation.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"With --emit: write the digest to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:"Performance regression gate: validate fresh bench JSON (schema, \
             orderings, accounting, headline floors), then check it against \
             a committed baseline within tolerance (exit 1 on any failure)")
    Term.(const gate_cmd $ fresh $ baseline $ tolerance $ emit $ scale $ out)

let primitives_t =
  Cmd.v
    (Cmd.info "primitives" ~doc:"Time core FractOS primitives")
    Term.(const primitives_cmd $ placement)

let census_t =
  Cmd.v
    (Cmd.info "census" ~doc:"Traffic census (see bench/main.exe -- fig2)")
    Term.(const census_cmd $ batch)

let chaos_t =
  let faults =
    Arg.(
      value & opt string "default"
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:"Fault spec: 'default', 'none', or comma-separated key=value \
                overrides (drop=0.05,crash=2,delay=30us,...). See HACKING.md.")
  in
  let workload =
    Arg.(
      value & opt string "mixed"
      & info [ "workload" ] ~docv:"W"
          ~doc:"Workload mix: faceverify, fs, mixed, copy, xshard \
                (cross-shard battery on a sharded capability space) or pd \
                (disaggregated prefill/decode inference).")
  in
  let clients =
    Arg.(
      value & opt int 6
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client fibers.")
  in
  let chaos_requests =
    Arg.(
      value & opt int 24
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total client requests.")
  in
  let sample_keep =
    Arg.(
      value & opt (some float) None
      & info [ "sample-keep" ] ~docv:"F"
          ~doc:"Enable tail-based trace sampling, keeping fraction $(docv) \
                of healthy traces (errors, sheds and over-threshold traces \
                are always kept).")
  in
  let sample_threshold_us =
    Arg.(
      value & opt (some int) None
      & info [ "sample-threshold-us" ] ~docv:"US"
          ~doc:"Enable tail-based trace sampling; traces slower than \
                $(docv) microseconds are always kept (default 1000).")
  in
  let seeds =
    Arg.(
      value & opt (some string) None
      & info [ "seeds" ] ~docv:"A-B"
          ~doc:"Run a whole seed battery ($(docv) inclusive, or a,b,c) \
                instead of one --seed; each seed's full output is printed \
                in seed order and is byte-identical for any --domains.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"OS domains to fan a --seeds battery over (default 1).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run workloads under a seeded fault plan and check \
             failure-to-revocation invariants (exit 1 on violation)")
    Term.(
      const chaos_cmd $ seed $ seeds $ domains $ faults $ workload $ clients
      $ chaos_requests $ journal $ journal_cap $ sample_keep
      $ sample_threshold_us $ slo_flag $ top_flag)

let top_t =
  let rate =
    Arg.(
      value & opt float 900_000.
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Offered open-loop load in requests per second.")
  in
  let top_requests =
    Arg.(
      value & opt int 2000
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total requests to offer.")
  in
  let interval_us =
    Arg.(
      value & opt int 200
      & info [ "interval-us" ] ~docv:"US"
          ~doc:"Dashboard refresh interval in simulated microseconds.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live dashboard over a saturating invoke workload (goodput, \
             sheds, backlogs, SLO burn, journal)")
    Term.(const top_cmd $ rate $ top_requests $ seed $ interval_us)

let config_t =
  Cmd.v
    (Cmd.info "config" ~doc:"Print the calibration constants")
    Term.(const config_cmd $ const ())

let topology_t =
  Cmd.v
    (Cmd.info "topology"
       ~doc:"Show the evaluation cluster, link utilization and footprints")
    Term.(const topology_cmd $ placement)

let main =
  Cmd.group
    (Cmd.info "fractos" ~version:"1.0.0"
       ~doc:"FractOS distributed-OS simulator (EuroSys'22 reproduction)")
    [
      run_t; primitives_t; census_t; chaos_t; top_t; config_t; topology_t;
      analyze_t; diff_t; gate_t;
    ]

let () = exit (Cmd.eval main)
