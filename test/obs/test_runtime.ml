(* Tests for the observability runtime added on top of metrics/spans:
   the journal flight recorder (ring overflow and severity accounting),
   OpenMetrics label-value escaping, the tail-based sampler (retention
   invariants, head-sampling bound, determinism — both in isolation and
   across two identical chaos runs), and SLO burn-rate window math at
   the exact window boundary. *)

module Sim = Fractos_sim
module Obs = Fractos_obs
module Fault = Fractos_fault

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Journal                                                            *)
(* ------------------------------------------------------------------ *)

let with_journal ?(capacity = 16_384) f =
  Obs.Journal.reset ();
  Obs.Journal.set_capacity capacity;
  Obs.Journal.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Journal.set_enabled false;
      Obs.Journal.set_min_severity Obs.Journal.Debug;
      Obs.Journal.set_capacity 16_384;
      Obs.Journal.reset ())
    f

let test_journal_ring_overflow () =
  with_journal ~capacity:4 @@ fun () ->
  Sim.Engine.run (fun () ->
      (* 7 events: odd indices Debug, even Warn; first 3 kind "a" *)
      for i = 1 to 7 do
        let sev =
          if i mod 2 = 0 then Obs.Journal.Warn else Obs.Journal.Debug
        in
        Obs.Journal.record ~node:"n" ~sev
          ~kind:(if i <= 3 then "a" else "b")
          ~detail:(string_of_int i) ()
      done;
      check_int "retained" 4 (Obs.Journal.count ());
      check_int "recorded" 7 (Obs.Journal.recorded ());
      check_int "overflowed" 3 (Obs.Journal.overflowed ());
      (* dropped events 1,2,3 = Debug, Warn, Debug *)
      check_int "overflowed debug" 2
        (Obs.Journal.overflowed_by_severity Obs.Journal.Debug);
      check_int "overflowed warn" 1
        (Obs.Journal.overflowed_by_severity Obs.Journal.Warn);
      (match Obs.Journal.events () with
      | oldest :: _ ->
        check_str "oldest survivor is event 4" "4" oldest.Obs.Journal.j_detail
      | [] -> Alcotest.fail "journal empty");
      (* per-kind summary counts everything recorded, not just retained *)
      check_int "summary a" 3 (List.assoc "a" (Obs.Journal.summary ()));
      check_int "summary b" 4 (List.assoc "b" (Obs.Journal.summary ())))

let test_journal_severity_filter () =
  with_journal @@ fun () ->
  Sim.Engine.run (fun () ->
      Obs.Journal.set_min_severity Obs.Journal.Warn;
      let evaluated = ref false in
      Obs.Journal.record_lazy ~node:"n" ~sev:Obs.Journal.Debug ~kind:"quiet"
        ~detail:(fun () ->
          evaluated := true;
          "never")
        ();
      check_bool "suppressed detail not built" false !evaluated;
      check_int "suppressed" 1 (Obs.Journal.suppressed ());
      check_int "not retained" 0 (Obs.Journal.count ());
      Obs.Journal.record_lazy ~node:"n" ~sev:Obs.Journal.Error ~kind:"loud"
        ~detail:(fun () ->
          evaluated := true;
          "kept")
        ();
      check_bool "stored detail built" true !evaluated;
      check_int "retained" 1 (Obs.Journal.count ()));
  (* disabled: record sites are inert and build nothing *)
  Obs.Journal.set_enabled false;
  Obs.Journal.reset ();
  let evaluated = ref false in
  Sim.Engine.run (fun () ->
      Obs.Journal.record_lazy ~node:"n" ~sev:Obs.Journal.Error ~kind:"off"
        ~detail:(fun () ->
          evaluated := true;
          "no")
        ());
  check_bool "disabled detail not built" false !evaluated;
  check_int "disabled records nothing" 0 (Obs.Journal.recorded ())

(* ------------------------------------------------------------------ *)
(* OpenMetrics escaping                                               *)
(* ------------------------------------------------------------------ *)

let test_escape_label () =
  check_str "backslash" {|a\\b|} (Obs.Openmetrics.escape_label {|a\b|});
  check_str "quote" {|a\"b|} (Obs.Openmetrics.escape_label {|a"b|});
  check_str "newline" {|a\nb|} (Obs.Openmetrics.escape_label "a\nb");
  check_str "clean passthrough" "node-0:gpu"
    (Obs.Openmetrics.escape_label "node-0:gpu");
  (* end to end: a hostile node name must neither break a line nor leak
     an unescaped quote into the label *)
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~node:"evil\\x\"y\nz" "hits" in
  Obs.Metrics.incr c;
  let out = Obs.Openmetrics.to_string () in
  let expected = {|node="evil\\x\"y\nz"|} in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "escaped label present" true (contains out expected);
  String.split_on_char '\n' out
  |> List.iter (fun line ->
         (* every non-comment line with a label set parses as
            name{...} value: exactly one '{' and the '}' after it *)
         if String.length line > 0 && line.[0] <> '#' && contains line "{"
         then
           check_bool
             ("balanced label braces: " ^ line)
             true
             (String.index line '{' < String.rindex line '}'))

(* ------------------------------------------------------------------ *)
(* Sampler                                                            *)
(* ------------------------------------------------------------------ *)

let with_sampler ~threshold ~keep f =
  Obs.Sampler.reset ();
  Obs.Sampler.configure ~threshold ~keep ();
  Obs.Sampler.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Sampler.set_enabled false;
      Obs.Sampler.reset ())
    f

(* The synthetic request stream used by both the invariant and the
   determinism test: 1 error, 1 shed, 1 slow, 10 healthy. *)
let feed () =
  let us = Sim.Time.us in
  let obs ~trace ~latency outcome =
    ignore
      (Obs.Sampler.observe ~trace ~latency ~outcome ~hist:"req" ())
  in
  obs ~trace:1 ~latency:(us 1) (Obs.Sampler.Err "boom");
  obs ~trace:2 ~latency:(us 1) Obs.Sampler.Shed;
  obs ~trace:3 ~latency:(us 100) Obs.Sampler.Ok_;
  for i = 0 to 9 do
    obs ~trace:(10 + i) ~latency:(us 1) Obs.Sampler.Ok_
  done

let test_sampler_retention () =
  with_sampler ~threshold:(Sim.Time.us 10) ~keep:0.25 @@ fun () ->
  feed ();
  check_int "seen" 13 (Obs.Sampler.seen ());
  check_int "healthy" 10 (Obs.Sampler.healthy_seen ());
  (* every error/shed/slow trace retained, unconditionally *)
  check_bool "error kept" true (Obs.Sampler.is_retained 1);
  check_bool "shed kept" true (Obs.Sampler.is_retained 2);
  check_bool "slow kept" true (Obs.Sampler.is_retained 3);
  check_int "kept by error" 1 (Obs.Sampler.kept_by Obs.Sampler.Kept_error);
  check_int "kept by shed" 1 (Obs.Sampler.kept_by Obs.Sampler.Kept_shed);
  check_int "kept by slow" 1 (Obs.Sampler.kept_by Obs.Sampler.Kept_slow);
  (* the credit accumulator keeps healthy requests 4 and 8 (0.25 * 4 =
     1.0), never exceeding ceil(keep * healthy) *)
  let head = Obs.Sampler.kept_by Obs.Sampler.Kept_head in
  check_int "head kept deterministically" 2 head;
  check_bool "head bound" true
    (float_of_int head <= Float.ceil (0.25 *. 10.));
  check_bool "healthy 4 kept" true (Obs.Sampler.is_retained 13);
  check_bool "healthy 8 kept" true (Obs.Sampler.is_retained 17);
  check_bool "healthy 1 dropped" false (Obs.Sampler.is_retained 10);
  (* exemplars: first retained trace per (hist, bucket) wins *)
  let b_fast = Obs.Metrics.bucket_of (Sim.Time.us 1) in
  let b_slow = Obs.Metrics.bucket_of (Sim.Time.us 100) in
  check_int "fast bucket exemplar = first retained (the error)" 1
    (Option.get (Obs.Sampler.exemplar ~hist:"req" ~bucket:b_fast));
  check_int "slow bucket exemplar" 3
    (Option.get (Obs.Sampler.exemplar ~hist:"req" ~bucket:b_slow))

let test_sampler_deterministic () =
  let run () =
    with_sampler ~threshold:(Sim.Time.us 10) ~keep:0.3 @@ fun () ->
    feed ();
    (Obs.Sampler.retained (), Obs.Sampler.exemplars ())
  in
  let a = run () and b = run () in
  check_bool "same stream, same retained set and exemplars" true (a = b)

(* Two identical same-seed chaos runs must agree on everything the
   sampler decided: the full rendered report (which includes the
   sampling summary line) and the retained trace set left in the
   sampler after the run. The sampling summary must also honour the
   retention contract: every error/shed/slow trace is kept, and at most
   ceil (keep * healthy) healthy ones. Two inputs: a mixed workload,
   and `fractos chaos --workload copy --sample-keep 0.25
   --sample-threshold-us 2000 --slo --seed 7`, whose SLO report must
   render at least three parsable windows with non-negative burns. *)
let test_chaos_sampling_deterministic () =
  let spec = Fault.Spec.default in
  let case ?clients ?requests ~workload ~threshold_us ~keep ?slo ~seed () =
    let go () =
      let slo = Option.map Obs.Slo.create slo in
      let r =
        Fault.Chaos.run ?clients ?requests ~workload
          ~sampling:(Sim.Time.us threshold_us, keep)
          ?slo ~spec ~seed ()
      in
      (r, Fault.Chaos.to_lines r, Obs.Sampler.retained ())
    in
    let r, lines_a, kept_a = go () in
    let _, lines_b, kept_b = go () in
    check_bool "reports identical" true (lines_a = lines_b);
    check_bool "retained trace sets identical" true (kept_a = kept_b);
    check_bool "something was sampled" true (kept_a <> []);
    (match r.Fault.Chaos.r_sampling with
    | None -> Alcotest.fail "no sampling summary"
    | Some s ->
      check_int "error+shed+slow = seen-healthy"
        (s.Fault.Chaos.s_seen - s.s_healthy)
        (s.s_kept_error + s.s_kept_shed + s.s_kept_slow);
      check_bool "head <= ceil(keep * healthy)" true
        (float s.s_kept_head <= Float.ceil (keep *. float s.s_healthy)));
    r
  in
  (* The mixed case is the one whose head bound is checked on real data:
     it must see healthy requests. *)
  let mixed =
    case ~clients:3 ~requests:12 ~workload:Fault.Chaos.Mixed
      ~threshold_us:500 ~keep:0.2 ~seed:1234 ()
  in
  (match mixed.Fault.Chaos.r_sampling with
  | Some s -> check_bool "mixed case has healthy requests" true (s.s_healthy > 0)
  | None -> Alcotest.fail "no sampling summary");
  (* The copy case feeds the SLO checks below. All of its 24 requests fail
     "process is dead" (its plan crashes a controller at 2.96 ms), so
     healthy = 0 and its head bound holds vacuously. *)
  let r =
    case ~workload:Fault.Chaos.Copy ~threshold_us:2000 ~keep:0.25
      ~slo:(Obs.Slo.make ~latency:(Sim.Time.ms 1) "chaos")
      ~seed:7 ()
  in
  let windows =
    List.filter
      (String.starts_with ~prefix:"  window=")
      (Option.value ~default:[] r.Fault.Chaos.r_slo)
  in
  check_bool ">= 3 SLO windows" true (List.length windows >= 3);
  List.iter
    (fun l ->
      let burn s = if s = "inf" then infinity else float_of_string s in
      match
        Scanf.sscanf l "  window=%s samples=%d latency_burn=%s error_burn=%s%!"
          (fun _ _ lat err -> (burn lat, burn err))
      with
      | lat, err ->
        check_bool ("burns >= 0: " ^ l) true (lat >= 0.0 && err >= 0.0)
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
        Alcotest.failf "unparsable SLO line %S" l)
    windows

(* ------------------------------------------------------------------ *)
(* SLO burn-rate windows                                              *)
(* ------------------------------------------------------------------ *)

let test_slo_burn_math () =
  Sim.Engine.run (fun () ->
      let t =
        Obs.Slo.create
          (Obs.Slo.make ~latency:(Sim.Time.us 10) ~latency_goal:0.9
             ~error_goal:1.0
             ~windows:[ Sim.Time.us 100 ]
             "burn")
      in
      (* 10 samples, 2 over the latency threshold: bad fraction 0.2
         against a 0.1 budget = burn 2.0 *)
      for i = 1 to 10 do
        let latency = Sim.Time.us (if i <= 2 then 50 else 1) in
        Obs.Slo.observe t ~latency ~ok:true
      done;
      (match Obs.Slo.report t with
      | [ r ] ->
        check_int "samples" 10 r.Obs.Slo.w_samples;
        Alcotest.(check (float 1e-9)) "latency burn" 2.0 r.Obs.Slo.w_latency_burn;
        Alcotest.(check (float 1e-9)) "error burn" 0.0 r.Obs.Slo.w_error_burn
      | rs -> Alcotest.failf "expected 1 window, got %d" (List.length rs));
      (* zero error budget (goal = 1.0) and a failure: infinite burn *)
      Obs.Slo.observe t ~latency:(Sim.Time.us 1) ~ok:false;
      match Obs.Slo.report t with
      | [ r ] ->
        check_bool "zero-budget violation burns infinitely" true
          (r.Obs.Slo.w_error_burn = infinity)
      | _ -> Alcotest.fail "expected 1 window")

let test_slo_window_boundary () =
  Sim.Engine.run (fun () ->
      let w = Sim.Time.us 100 in
      let t =
        Obs.Slo.create
          (Obs.Slo.make ~latency:(Sim.Time.us 10) ~latency_goal:0.9
             ~error_goal:0.99 ~windows:[ w ] "edge")
      in
      Sim.Engine.sleep (Sim.Time.us 7);
      Obs.Slo.observe t ~latency:(Sim.Time.us 50) ~ok:true;
      let samples_in_window () =
        match Obs.Slo.report t with
        | [ r ] -> r.Obs.Slo.w_samples
        | _ -> Alcotest.fail "expected 1 window"
      in
      check_int "visible at its own instant" 1 (samples_in_window ());
      Sim.Engine.sleep (w - 1);
      check_int "still inside at now - w + 1" 1 (samples_in_window ());
      (* the window is half-open: a sample aged exactly w is outside *)
      Sim.Engine.sleep 1;
      check_int "excluded at exactly now - w" 0 (samples_in_window ());
      (* eviction: the next observation drops samples older than the
         longest window from the deque entirely *)
      Obs.Slo.observe t ~latency:(Sim.Time.us 1) ~ok:true;
      check_int "old sample evicted" 1 (Obs.Slo.samples t);
      check_int "total is cumulative" 2 (Obs.Slo.total t))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fractos_obs_runtime"
    [
      ( "journal",
        [
          Alcotest.test_case "ring overflow accounting" `Quick
            test_journal_ring_overflow;
          Alcotest.test_case "severity filter and lazy detail" `Quick
            test_journal_severity_filter;
        ] );
      ( "openmetrics",
        [ Alcotest.test_case "label escaping" `Quick test_escape_label ] );
      ( "sampler",
        [
          Alcotest.test_case "retention invariants" `Quick
            test_sampler_retention;
          Alcotest.test_case "deterministic replay" `Quick
            test_sampler_deterministic;
          Alcotest.test_case "chaos same-seed determinism" `Quick
            test_chaos_sampling_deterministic;
        ] );
      ( "slo",
        [
          Alcotest.test_case "burn-rate math" `Quick test_slo_burn_math;
          Alcotest.test_case "half-open window boundary" `Quick
            test_slo_window_boundary;
        ] );
    ]
