(* Tests for the workload generators: the face dataset and the open-loop
   load generator. *)

open Fractos_sim
module Facedata = Fractos_workloads.Facedata
module Loadgen = Fractos_workloads.Loadgen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Facedata                                                           *)
(* ------------------------------------------------------------------ *)

let test_images_deterministic () =
  check_bool "same id same image" true
    (Bytes.equal (Facedata.image ~img_size:64 ~id:3)
       (Facedata.image ~img_size:64 ~id:3));
  check_bool "different ids differ" false
    (Bytes.equal (Facedata.image ~img_size:64 ~id:3)
       (Facedata.image ~img_size:64 ~id:4))

let test_db_layout () =
  let db = Facedata.db ~img_size:32 ~n:8 in
  check_int "size" (32 * 8) (Bytes.length db);
  for i = 0 to 7 do
    check_bool
      (Printf.sprintf "entry %d in place" i)
      true
      (Bytes.equal (Bytes.sub db (i * 32) 32) (Facedata.image ~img_size:32 ~id:i))
  done

(* Pins the database bytes across changes to [Prng.fill_bytes]: every
   faceverify result and BENCH digest depends on them. *)
let test_db_golden_digest () =
  Alcotest.(check string)
    "db digest" "dc50ead3ea6ea8ff7dec4ac8c575f367"
    (Digest.to_hex (Digest.bytes (Facedata.db ~img_size:4096 ~n:64)))

let test_probe_genuine_vs_impostor () =
  check_bool "genuine matches db" true
    (Bytes.equal
       (Facedata.probe ~img_size:32 ~id:5 ~genuine:true)
       (Facedata.image ~img_size:32 ~id:5));
  check_bool "impostor differs" false
    (Bytes.equal
       (Facedata.probe ~img_size:32 ~id:5 ~genuine:false)
       (Facedata.image ~img_size:32 ~id:5))

let test_expected_matches_align_with_batch () =
  let img_size = 16 and batch = 9 and impostor_every = 3 in
  let probes =
    Facedata.probe_batch ~img_size ~start_id:4 ~batch ~impostor_every
  in
  let expected = Facedata.expected_matches ~batch ~impostor_every in
  for i = 0 to batch - 1 do
    let p = Bytes.sub probes (i * img_size) img_size in
    let d = Facedata.image ~img_size ~id:(4 + i) in
    let matches = Bytes.equal p d in
    check_bool
      (Printf.sprintf "probe %d agrees with ground truth" i)
      (Bytes.get expected i = '\001')
      matches
  done

(* ------------------------------------------------------------------ *)
(* Loadgen                                                            *)
(* ------------------------------------------------------------------ *)

let test_summarize_percentiles () =
  let lats = List.init 100 (fun i -> (i + 1) * 10) in
  let s = Loadgen.summarize lats 123 in
  check_int "n" 100 s.Loadgen.n;
  check_int "mean" 505 s.Loadgen.mean;
  check_int "p50" 510 s.Loadgen.p50;
  check_int "p99" 990 s.Loadgen.p99;
  check_int "max" 1000 s.Loadgen.max;
  check_int "elapsed" 123 s.Loadgen.elapsed

let test_summarize_empty () =
  (* [] used to raise Invalid_argument, crashing the report of any run
     that completed zero requests (heavy chaos shedding); it must return
     the all-zero summary instead *)
  let s = Loadgen.summarize [] 456 in
  check_int "n" 0 s.Loadgen.n;
  check_int "mean" 0 s.Loadgen.mean;
  check_int "p50" 0 s.Loadgen.p50;
  check_int "p95" 0 s.Loadgen.p95;
  check_int "p99" 0 s.Loadgen.p99;
  check_int "max" 0 s.Loadgen.max;
  check_int "elapsed preserved" 456 s.Loadgen.elapsed

let test_open_loop_counts_and_rate () =
  Engine.run (fun () ->
      let rng = Prng.create ~seed:1 in
      (* each request takes 100 us; offered rate 1000/s => mean gap 1 ms:
         system is underloaded, latency stays at the service time *)
      let s =
        Loadgen.run_open_loop ~rng ~rate_per_s:1000. ~n:50 (fun _ ->
            Engine.sleep (Time.us 100))
      in
      check_int "all completed" 50 s.Loadgen.n;
      check_int "underloaded latency = service time" (Time.us 100)
        s.Loadgen.p99;
      (* elapsed should be near 50 arrivals x 1 ms *)
      check_bool "elapsed tracks offered rate" true
        (s.Loadgen.elapsed > Time.ms 20 && s.Loadgen.elapsed < Time.ms 120))

let test_open_loop_queueing_shows_in_tail () =
  Engine.run (fun () ->
      let rng = Prng.create ~seed:2 in
      (* single server, service 1 ms, offered 900/s: utilization 0.9 =>
         heavy queueing in the tail *)
      let server = Resource.create () in
      let s =
        Loadgen.run_open_loop ~rng ~rate_per_s:900. ~n:80 (fun _ ->
            Resource.use server ~duration:(Time.ms 1))
      in
      check_bool "p99 well above service time" true
        (s.Loadgen.p99 > 2 * Time.ms 1))

let test_open_loop_zero_requests () =
  Engine.run (fun () ->
      let rng = Prng.create ~seed:3 in
      (* n = 0 used to deadlock: the completion ivar was never filled and
         the caller blocked forever; now it returns a zero summary *)
      let iv = Ivar.create () in
      Engine.spawn (fun () ->
          Ivar.fill iv
            (Loadgen.run_open_loop ~rng ~rate_per_s:1000. ~n:0 (fun _ ->
                 Alcotest.fail "request fired for n = 0")));
      match Ivar.await_timeout iv ~timeout:(Time.ms 10) with
      | None -> Alcotest.fail "run_open_loop deadlocked on n = 0"
      | Some s ->
        check_int "zero samples" 0 s.Loadgen.n;
        check_int "zero mean" 0 s.Loadgen.mean;
        check_int "zero p99" 0 s.Loadgen.p99;
        check_int "zero elapsed" 0 s.Loadgen.elapsed)

let test_open_loop_negative_rejected () =
  Engine.run (fun () ->
      let rng = Prng.create ~seed:4 in
      match
        Loadgen.run_open_loop ~rng ~rate_per_s:1000. ~n:(-1) (fun _ -> ())
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "n = -1 accepted")

let () =
  Alcotest.run "fractos_workloads"
    [
      ( "facedata",
        [
          Alcotest.test_case "deterministic" `Quick test_images_deterministic;
          Alcotest.test_case "db layout" `Quick test_db_layout;
          Alcotest.test_case "db golden digest" `Quick test_db_golden_digest;
          Alcotest.test_case "genuine vs impostor" `Quick
            test_probe_genuine_vs_impostor;
          Alcotest.test_case "ground truth alignment" `Quick
            test_expected_matches_align_with_batch;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "percentiles" `Quick test_summarize_percentiles;
          Alcotest.test_case "empty samples" `Quick test_summarize_empty;
          Alcotest.test_case "open loop underload" `Quick
            test_open_loop_counts_and_rate;
          Alcotest.test_case "queueing tail" `Quick
            test_open_loop_queueing_shows_in_tail;
          Alcotest.test_case "zero requests" `Quick
            test_open_loop_zero_requests;
          Alcotest.test_case "negative rejected" `Quick
            test_open_loop_negative_rejected;
        ] );
    ]
