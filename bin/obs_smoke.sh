#!/bin/sh
# Observability smokes (the @obs-smoke dune alias):
# - `fractos run --journal --slo` on a tiny workload: the journal must
#   retain events without overflowing and the SLO report must print at
#   least three windows (their burn rates are parsed by the sampler
#   chaos test in test/obs/test_runtime.ml);
# - `--journal-cap` must bound the ring and account the overflow;
# - `fractos top` must render dashboard frames and a final SLO report;
# - a sampled chaos run must be bit-deterministic per seed and print its
#   sampling summary (its retention bounds are asserted on the same run
#   by test/obs/test_runtime.ml);
# - the loadcurve bench must report identical goodput with and without
#   the --top live dashboard (the dashboard fiber only reads metrics);
# - `fractos analyze --whatif` must be bit-deterministic for the same
#   seed and rank the controller as the dominant tax component at the
#   knee;
# - `fractos run --artifacts` + `fractos analyze DIR` + `fractos diff`
#   must round-trip: self-diff quiet, cross-seed diff significant
#   (--fail-on-change exit 1).
#   bin/obs_smoke.sh <fractos.exe> <bench-main.exe>
set -eu

fractos=$1
bench=$2

tmp=$(mktemp -d /tmp/fractos-obs-smoke.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

echo "== obs-smoke: fractos run --journal --slo"
"$fractos" run -n 4 --journal --slo >"$tmp/run.txt" 2>&1

journal_line=$(grep '^journal:' "$tmp/run.txt")
case "$journal_line" in
*"0 retained"*) echo "journal empty: $journal_line"; exit 1 ;;
*overflowed*) echo "journal overflowed on a tiny run: $journal_line"; exit 1 ;;
esac
# the dump must carry admit events attributed to nodes
grep -q 'ctrl.admit' "$tmp/run.txt"

# SLO report: a header plus one parsable line per window
grep -q '^slo request: latency<=' "$tmp/run.txt"
windows=$(grep -c '^  window=.*latency_burn=.*error_burn=' "$tmp/run.txt")
test "$windows" -ge 3

echo "== obs-smoke: --journal-cap bounds the ring"
"$fractos" run -n 4 --journal --journal-cap 8 >"$tmp/cap.txt" 2>&1
grep -q '^journal: 8 retained / .* overflowed' "$tmp/cap.txt"

echo "== obs-smoke: fractos top"
"$fractos" top --rate 600000 -n 300 >"$tmp/top.txt" 2>&1
test "$(grep -c '^\[top\] t=' "$tmp/top.txt")" -ge 2
grep -q '^slo invoke: latency<=' "$tmp/top.txt"
grep -q '^journal: .* recorded' "$tmp/top.txt"
# the quiescence frame is guaranteed even for runs shorter than one
# dashboard interval
grep -q '^\[top\] t=.* fin$' "$tmp/top.txt"
"$fractos" top --rate 600000 -n 3 >"$tmp/top_short.txt" 2>&1
test "$(grep -c '^\[top\] t=.* fin$' "$tmp/top_short.txt")" -eq 1

echo "== obs-smoke: sampled chaos is deterministic and retains the tail"
chaos="--workload copy --sample-keep 0.25 --sample-threshold-us 2000 \
  --journal --slo --seed 7"
"$fractos" chaos $chaos >"$tmp/chaos1.txt" 2>&1
"$fractos" chaos $chaos >"$tmp/chaos2.txt" 2>&1
cmp "$tmp/chaos1.txt" "$tmp/chaos2.txt"
grep -q '^sampling: seen=' "$tmp/chaos1.txt"

echo "== obs-smoke: bench --top does not perturb goodput"
"$bench" loadcurve --tiny --loadcurve-json "$tmp/lc_plain.json" \
  >/dev/null 2>&1
"$bench" loadcurve --tiny --top --loadcurve-json "$tmp/lc_top.json" \
  >/dev/null 2>"$tmp/lc_top.err"
grep -q '^\[top\] t=' "$tmp/lc_top.err"
grep -o '"goodput_rps": [0-9.]*' "$tmp/lc_plain.json" >"$tmp/good_plain"
grep -o '"goodput_rps": [0-9.]*' "$tmp/lc_top.json" >"$tmp/good_top"
cmp "$tmp/good_plain" "$tmp/good_top"

echo "== obs-smoke: what-if profile is deterministic and blames the ctrl"
"$fractos" analyze --whatif -n 300 >"$tmp/whatif1.txt" 2>&1
"$fractos" analyze --whatif -n 300 >"$tmp/whatif2.txt" 2>&1
cmp "$tmp/whatif1.txt" "$tmp/whatif2.txt"
grep -q '#1 ctrl' "$tmp/whatif1.txt"
grep -q "'ctrl' dominates the tax" "$tmp/whatif1.txt"

echo "== obs-smoke: artifacts round-trip through analyze and diff"
"$fractos" run -n 4 --artifacts "$tmp/art_a" >"$tmp/art_a.txt" 2>&1
"$fractos" run -n 6 --seed 9 --artifacts "$tmp/art_b" >/dev/null 2>&1
grep -q 'saved run artifacts' "$tmp/art_a.txt"
"$fractos" analyze "$tmp/art_a" >"$tmp/analyze.txt" 2>&1
grep -q '^  breakdown (' "$tmp/analyze.txt"
grep -q '^  journal: ' "$tmp/analyze.txt"
# self-diff must be quiet; a cross-run diff (different n) must trip
# --fail-on-change
"$fractos" diff --fail-on-change "$tmp/art_a" "$tmp/art_a" >/dev/null 2>&1
if "$fractos" diff --fail-on-change "$tmp/art_a" "$tmp/art_b" >/dev/null 2>&1
then echo "cross-run diff reported no change"; exit 1; fi

echo "== obs-smoke OK"
