(** Performance regression gate over the bench JSON artifacts.

    Two checks. {!validate} holds one bench JSON to its schema, its
    orderings, its request accounting and the headline floors of the
    reproduction, with no baseline involved. {!check} compares the
    headline numbers against a committed baseline.

    The benches are seed-deterministic, so their [--tiny] variants
    yield stable headline numbers suitable for a CI gate: knee goodput
    per variant from [BENCH_loadcurve.json], headline serial/pipelined
    bandwidth plus speedup from [BENCH_copybw.json], per-shard-count
    knee goodput from [BENCH_cluster.json], and goodput per
    mode/decode-count/KV-size point from [BENCH_pd.json].
    All gated metrics are higher-is-better; a fresh run passes when
    every baseline metric reaches [>= (1 - tolerance)] of its committed
    value. Improvements beyond [+tolerance] still pass but are called
    out so the baseline gets re-emitted and the gate tightens. *)

val default_tolerance : float
(** [0.10] *)

val extract : Json.t -> ((string * float) list, string) result
(** Pull the gated metrics out of a bench JSON, dispatching on its
    ["experiment"] field ([loadcurve], [copybw], [cluster] or [pd]). *)

val validate : Json.t -> string list
(** Every violation in a bench JSON, dispatching on ["experiment"] like
    {!extract}; [[]] means valid. Checked for all four experiments:
    - [meta]: [git] non-empty, [wallclock_s >= 0], [domains >= 1],
      [cores >= 1], the sweep's knob key, and the exact seed list
      ([[5; 6; 11]] loadcurve, [[11]] cluster, [[17]] pd);
    - loadcurve: variants exactly [fastpath-off], [fastpath-on], each
      with strictly increasing [offered_rps];
    - copybw: a serial (1, 1) and a pipelined point, positive [ns] and
      [gbps], headline speedup [>= 2.0];
    - cluster: strictly increasing [shards], a positive knee, and a
      4-shard knee [>= 3.0x] the 1-shard knee;
    - pd: [mean_ttft_us <= p99_latency_us], split goodput [>= 0.5x]
      unified at every point, and split goodput at the smallest KV size
      scaling [>= 1.5x] from the fewest to the most decode instances;
    - every sweep point: [ok + errors = n] and positive goodput. *)

val metrics_of_baseline : Json.t -> ((string * float) list, string) result
(** A baseline is either an {!emit_string}-produced digest (read from
    its ["metrics"] object) or a raw bench JSON (extracted). *)

val baseline_tolerance : Json.t -> float option

type metric = {
  g_name : string;
  g_base : float;
  g_fresh : float;  (** [nan] when the fresh run lacks the metric *)
  g_ratio : float;  (** fresh / base *)
  g_ok : bool;
}

type report = {
  r_tolerance : float;
  r_metrics : metric list;
  r_pass : bool;
  r_improved : string list;
      (** metrics above [base * (1 + tolerance)] — passing, but the
          baseline deserves a refresh *)
}

val check :
  ?tolerance:float -> baseline:Json.t -> fresh:Json.t -> unit -> (report, string) result
(** [tolerance] overrides the baseline-embedded value (default
    {!default_tolerance}). Metrics present only in the fresh run are
    ignored; metrics missing from the fresh run fail. *)

val emit_string :
  ?scale:float -> source:string -> tolerance:float -> (string * float) list -> string
(** Render a baseline digest. [scale] multiplies every metric — the
    gate's own negative test emits a deliberately inflated baseline to
    prove the check fails when performance degrades. *)

val pp_result : Format.formatter -> report -> unit
