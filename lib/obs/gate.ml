(* Performance regression gate: validate a freshly produced bench JSON
   on its own, then compare it against a committed baseline within a
   tolerance.

   Validation holds the reproduction's headline floors (copy pipelining
   >= 2x, 4-shard knee >= 3x, split prefill/decode >= 0.5x unified)
   whatever the baseline says, so a baseline refreshed after a
   regression cannot launder it. The comparison exists because the
   benches are seed-deterministic: their --tiny variants produce stable
   headline numbers suitable for an exact-ish CI gate — knee goodput for
   the loadcurve sweep, serial/pipelined bandwidth and speedup for the
   copy path, per-shard-count knee goodput for the cluster scaling
   sweep, goodput per point for the pd sweep. All gated metrics are
   higher-is-better throughputs; a run passes when every baseline
   metric is reproduced at >= (1 - tolerance) of its committed value.
   Improvements beyond the tolerance pass but are called out, nudging
   the baseline to be re-emitted so the gate tightens as the system
   gets faster. *)

let default_tolerance = 0.10

(* ------------------------------------------------------------------ *)
(* Metric extraction from bench JSON                                   *)
(* ------------------------------------------------------------------ *)

let knee points =
  List.fold_left
    (fun m p ->
      match Json.number_at [ "goodput_rps" ] p with
      | Some g -> Float.max m g
      | None -> m)
    0.0 points

let extract_loadcurve j =
  match Option.bind (Json.member "variants" j) Json.to_list with
  | None -> Error "loadcurve JSON has no variants array"
  | Some variants ->
    Ok
      (List.filter_map
         (fun v ->
           match
             ( Json.string_at [ "name" ] v,
               Option.bind (Json.member "points" v) Json.to_list )
           with
           | Some name, Some points ->
             Some ("knee_goodput_rps/" ^ name, knee points)
           | _ -> None)
         variants)

let extract_copybw j =
  match Json.member "headline" j with
  | None -> Error "copybw JSON has no headline object"
  | Some h ->
    let get k =
      match Json.number_at [ k ] h with
      | Some v -> Ok (k, v)
      | None -> Error ("copybw headline misses " ^ k)
    in
    let rec all acc = function
      | [] -> Ok (List.rev acc)
      | k :: tl -> ( match get k with Ok kv -> all (kv :: acc) tl | Error _ as e -> e)
    in
    all [] [ "serial_gbps"; "pipelined_gbps"; "speedup" ]

let extract_cluster j =
  match Option.bind (Json.member "points" j) Json.to_list with
  | None -> Error "cluster JSON has no points array"
  | Some points ->
    Ok
      (List.filter_map
         (fun p ->
           match
             ( Json.number_at [ "shards" ] p,
               Json.number_at [ "knee_goodput_rps" ] p )
           with
           | Some s, Some k ->
             Some
               (Printf.sprintf "knee_goodput_rps/shards-%d" (int_of_float s), k)
           | _ -> None)
         points)

let extract_pd j =
  match Option.bind (Json.member "points" j) Json.to_list with
  | None -> Error "pd JSON has no points array"
  | Some points ->
    Ok
      (List.filter_map
         (fun p ->
           match
             ( Json.string_at [ "mode" ] p,
               Json.number_at [ "decodes" ] p,
               Json.number_at [ "kv_bytes" ] p,
               Json.number_at [ "goodput_rps" ] p )
           with
           | Some mode, Some d, Some kv, Some g ->
             Some
               ( Printf.sprintf "goodput_rps/%s-d%d-kv%d" mode
                   (int_of_float d)
                   (int_of_float kv / 1024),
                 g )
           | _ -> None)
         points)

let extract j =
  match Json.string_at [ "experiment" ] j with
  | Some "loadcurve" -> extract_loadcurve j
  | Some "copybw" -> extract_copybw j
  | Some "cluster" -> extract_cluster j
  | Some "pd" -> extract_pd j
  | Some other -> Error ("unknown experiment kind " ^ other)
  | None -> Error "JSON has no \"experiment\" field"

(* ------------------------------------------------------------------ *)
(* Validation: schema, ordering, accounting and headline floors         *)
(* ------------------------------------------------------------------ *)

(* Every violation is collected, not just the first. A missing number
   is reported once and then reads as nan; each check below fires on a
   [<], [<=] or [>] comparison, all false on nan, so one hole in the
   JSON does not cascade into spurious floor violations. *)
let validate j =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let num ctx k o =
    match Json.number_at [ k ] o with
    | Some v -> v
    | None ->
      fail "%s: missing number %S" ctx k;
      Float.nan
  in
  let positive ctx k o =
    let v = num ctx k o in
    if v <= 0.0 then fail "%s: %s %g is not positive" ctx k v;
    v
  in
  let nonempty ctx k o =
    match Option.bind (Json.member k o) Json.to_list with
    | Some (_ :: _ as l) -> l
    | Some [] ->
      fail "%s: %S is empty" ctx k;
      []
    | None ->
      fail "%s: missing array %S" ctx k;
      []
  in
  let increasing ctx k xs =
    ignore
      (List.fold_left
         (fun prev x ->
           if x <= prev then
             fail "%s: %s not strictly increasing (%g after %g)" ctx k x prev;
           x)
         Float.neg_infinity xs)
  in
  (* ok + errors = n and positive goodput; returns the goodput *)
  let accounted ctx p =
    let ok = num ctx "ok" p and errors = num ctx "errors" p and n = num ctx "n" p in
    if ok +. errors < n || ok +. errors > n then
      fail "%s: ok %g + errors %g <> n %g" ctx ok errors n;
    positive ctx "goodput_rps" p
  in
  let meta ?seeds knob =
    match Json.member "meta" j with
    | None -> fail "missing meta block"
    | Some m ->
      (match Json.string_at [ "git" ] m with
      | Some s when s <> "" -> ()
      | _ -> fail "meta: git is missing or empty");
      List.iter
        (fun (k, lo) ->
          let v = num "meta" k m in
          if v < lo then fail "meta: %s %g < %g" k v lo)
        [ ("wallclock_s", 0.0); ("domains", 1.0); ("cores", 1.0) ];
      Option.iter
        (fun want ->
          let want_j = Json.Arr (List.map (fun s -> Json.Num (float s)) want) in
          if Json.member "seeds" m <> Some want_j then
            fail "meta: seeds are not [%s]"
              (String.concat ", " (List.map string_of_int want)))
        seeds;
      if Json.path [ "knobs"; knob ] m = None then
        fail "meta: knobs miss %S" knob
  in
  let loadcurve () =
    meta ~seeds:[ 5; 6; 11 ] "rates_rps";
    let variants = nonempty "loadcurve" "variants" j in
    let names =
      List.map
        (fun v -> Option.value ~default:"?" (Json.string_at [ "name" ] v))
        variants
    in
    if names <> [ "fastpath-off"; "fastpath-on" ] then
      fail "loadcurve: variants are [%s], want [fastpath-off, fastpath-on]"
        (String.concat ", " names);
    List.iter2
      (fun name v ->
        let pts = nonempty name "points" v in
        increasing name "offered_rps" (List.map (num name "offered_rps") pts);
        List.iteri
          (fun i p -> ignore (accounted (Printf.sprintf "%s point %d" name i) p))
          pts)
      names variants
  in
  let copybw () =
    meta "headline_window";
    let engines =
      List.mapi
        (fun i p ->
          let ctx = Printf.sprintf "copybw point %d" i in
          ignore (positive ctx "ns" p);
          ignore (positive ctx "gbps" p);
          (num ctx "window" p, num ctx "streams" p))
        (nonempty "copybw" "points" j)
    in
    if not (List.mem (1.0, 1.0) engines) then
      fail "copybw: serial point (window 1, streams 1) missing";
    if not (List.exists (fun (w, s) -> w > 1.0 || s > 1.0) engines) then
      fail "copybw: pipelined point missing";
    match Json.member "headline" j with
    | None -> fail "copybw: missing headline"
    | Some h ->
      ignore (positive "headline" "serial_gbps" h);
      ignore (positive "headline" "pipelined_gbps" h);
      let s = num "headline" "speedup" h in
      if s < 2.0 then fail "copybw: headline speedup %.2fx below the 2x floor" s
  in
  let cluster () =
    meta ~seeds:[ 11 ] "shard_counts";
    let knees =
      List.map
        (fun p ->
          let shards = num "cluster" "shards" p in
          let ctx = Printf.sprintf "cluster shards %g" shards in
          let knee = positive ctx "knee_goodput_rps" p in
          List.iteri
            (fun i s -> ignore (accounted (Printf.sprintf "%s sweep %d" ctx i) s))
            (nonempty ctx "sweep" p);
          (shards, knee))
        (nonempty "cluster" "points" j)
    in
    increasing "cluster" "shards" (List.map fst knees);
    match (List.assoc_opt 1.0 knees, List.assoc_opt 4.0 knees) with
    | Some k1, Some k4 ->
      if k4 < 3.0 *. k1 then
        fail "cluster: 4-shard knee %.0f below 3x the 1-shard knee %.0f" k4 k1
    | _ -> fail "cluster: needs shard counts 1 and 4"
  in
  let pd () =
    meta ~seeds:[ 17 ] "decode_counts";
    let split = ref [] and unified = ref [] in
    List.iteri
      (fun i p ->
        let ctx = Printf.sprintf "pd point %d" i in
        let g = accounted ctx p in
        let ttft = positive ctx "mean_ttft_us" p in
        let p99 = num ctx "p99_latency_us" p in
        if ttft > p99 then
          fail "%s: mean_ttft_us %g exceeds p99_latency_us %g" ctx ttft p99;
        let key = (num ctx "decodes" p, num ctx "kv_bytes" p) in
        match Json.string_at [ "mode" ] p with
        | Some "split" -> split := (key, g) :: !split
        | Some "unified" -> unified := (key, g) :: !unified
        | _ -> fail "%s: mode is neither split nor unified" ctx)
      (nonempty "pd" "points" j);
    if !split = [] || !unified = [] then
      fail "pd: needs both split and unified points"
    else begin
      (* the disaggregation tax stays bounded: split keeps at least half
         the unified same-node goodput at every point *)
      List.iter
        (fun ((d, kv), g) ->
          match List.assoc_opt (d, kv) !unified with
          | None -> fail "pd: no unified point at decodes %g kv %g" d kv
          | Some u ->
            if g < 0.5 *. u then
              fail "pd: split goodput %.0f below half of unified %.0f at \
                    decodes %g kv %g" g u d kv)
        !split;
      (* and split goodput scales with the decode count at the smallest
         KV size *)
      let kv0 =
        List.fold_left (fun m ((_, kv), _) -> Float.min m kv) infinity !split
      in
      let by_d =
        List.sort compare
          (List.filter_map
             (fun ((d, kv), g) -> if kv = kv0 then Some (d, g) else None)
             !split)
      in
      match (by_d, List.rev by_d) with
      | (_, g_lo) :: _ :: _, (_, g_hi) :: _ ->
        if g_hi < 1.5 *. g_lo then
          fail "pd: split goodput %.0f -> %.0f does not scale 1.5x with \
                decode count" g_lo g_hi
      | _ -> fail "pd: decode scaling needs at least two decode counts"
    end
  in
  (match Json.string_at [ "experiment" ] j with
  | Some "loadcurve" -> loadcurve ()
  | Some "copybw" -> copybw ()
  | Some "cluster" -> cluster ()
  | Some "pd" -> pd ()
  | Some other -> fail "unknown experiment kind %s" other
  | None -> fail "JSON has no \"experiment\" field");
  List.rev !errs

(* A baseline file is either an emitted {"metrics": {...}} digest or a
   raw bench JSON (extracted on the fly). *)
let metrics_of_baseline j =
  match Json.member "metrics" j with
  | Some (Json.Obj kvs) ->
    let nums =
      List.filter_map
        (fun (k, v) ->
          match Json.to_float v with Some f -> Some (k, f) | None -> None)
        kvs
    in
    if nums = [] then Error "baseline metrics object holds no numbers"
    else Ok nums
  | Some _ -> Error "baseline \"metrics\" is not an object"
  | None -> extract j

let baseline_tolerance j = Json.number_at [ "tolerance" ] j

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

type metric = {
  g_name : string;
  g_base : float;
  g_fresh : float;  (* nan when the fresh run lacks the metric *)
  g_ratio : float;  (* fresh / base; 1.0 when base = 0 and fresh = 0 *)
  g_ok : bool;
}

type report = {
  r_tolerance : float;
  r_metrics : metric list;
  r_pass : bool;
  r_improved : string list;  (* metrics above base * (1 + tolerance) *)
}

let check ?tolerance ~baseline ~fresh () =
  match metrics_of_baseline baseline with
  | Error _ as e -> e
  | Ok base_metrics -> (
    match extract fresh with
    | Error _ as e -> e
    | Ok fresh_metrics ->
      let tol =
        match tolerance with
        | Some t -> t
        | None ->
          Option.value ~default:default_tolerance (baseline_tolerance baseline)
      in
      let metrics =
        List.map
          (fun (name, base) ->
            match List.assoc_opt name fresh_metrics with
            | None ->
              {
                g_name = name;
                g_base = base;
                g_fresh = Float.nan;
                g_ratio = 0.0;
                g_ok = false;
              }
            | Some f ->
              let ratio =
                if base > 0.0 then f /. base
                else if f = base then 1.0
                else 0.0
              in
              {
                g_name = name;
                g_base = base;
                g_fresh = f;
                g_ratio = ratio;
                g_ok = ratio >= 1.0 -. tol;
              })
          base_metrics
      in
      Ok
        {
          r_tolerance = tol;
          r_metrics = metrics;
          r_pass = metrics <> [] && List.for_all (fun m -> m.g_ok) metrics;
          r_improved =
            List.filter_map
              (fun m ->
                if m.g_ok && m.g_ratio > 1.0 +. tol then Some m.g_name
                else None)
              metrics;
        })

(* ------------------------------------------------------------------ *)
(* Baseline emission                                                   *)
(* ------------------------------------------------------------------ *)

let emit_string ?(scale = 1.0) ~source ~tolerance metrics =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"source\": %S,\n  \"tolerance\": %.3f,\n  \"metrics\": {\n"
       source tolerance);
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "    %S: %.3f%s\n" k (v *. scale)
           (if i = List.length metrics - 1 then "" else ",")))
    metrics;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_result fmt r =
  let open Format in
  fprintf fmt "bench gate (tolerance %.0f%%):@." (r.r_tolerance *. 100.0);
  List.iter
    (fun m ->
      if Float.is_nan m.g_fresh then
        fprintf fmt "  FAIL %-36s base %.1f, missing from fresh run@." m.g_name
          m.g_base
      else
        fprintf fmt "  %s %-36s base %.1f, fresh %.1f (%.1f%%)@."
          (if m.g_ok then "ok  " else "FAIL")
          m.g_name m.g_base m.g_fresh (m.g_ratio *. 100.0))
    r.r_metrics;
  List.iter
    (fun name ->
      fprintf fmt
        "  note: %s improved beyond tolerance — consider re-emitting the \
         baseline@."
        name)
    r.r_improved;
  fprintf fmt "result: %s@." (if r.r_pass then "PASS" else "FAIL")
