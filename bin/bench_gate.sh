#!/bin/sh
# Bench gate (the @bench-gate dune alias), the one place the --tiny
# sweeps run:
# - run all four benches (loadcurve, copybw, cluster, pd) in --tiny mode
#   (seed-deterministic, seconds of wall clock). `fractos gate` validates
#   each fresh JSON (schema, seeds, orderings, request accounting and
#   the headline floors; see Obs.Gate.validate), then checks its
#   headline metrics against the committed baselines in
#   bench/baselines/: knee goodput per loadcurve variant,
#   serial/pipelined bandwidth and speedup for the copy path, knee
#   goodput per shard count, goodput per pd point, each within the
#   baseline's embedded tolerance;
# - negative self-tests — a gate that cannot fail guards nothing:
#   the gate must FAIL against a deliberately inflated baseline
#   (--emit --scale 1.3), and on a copybw file whose speedup is below
#   the 2x floor although within the baseline's tolerance;
# - a --tiny run given no JSON path must write no BENCH_*.json, so it
#   cannot overwrite the committed full sweep.
# To refresh baselines after an intentional perf change, see
# "Updating the perf baselines" in HACKING.md.
#   bin/bench_gate.sh <fractos.exe> <bench-main.exe> [baseline-dir]
set -eu

fractos=$1
bench=$2
baselines=${3:-bench/baselines}

tmp=$(mktemp -d /tmp/fractos-bench-gate.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

echo "== bench-gate: producing fresh --tiny bench JSON"
for exp in loadcurve copybw cluster pd; do
  "$bench" "$exp" --tiny --"$exp"-json "$tmp/BENCH_$exp.json" >/dev/null
done

for exp in loadcurve copybw cluster pd; do
  echo "== bench-gate: $exp vs $baselines/${exp}_tiny.json"
  "$fractos" gate "$tmp/BENCH_$exp.json" \
    --baseline "$baselines/${exp}_tiny.json"
done

lc="$tmp/BENCH_loadcurve.json"
echo "== bench-gate: negative self-test (inflated baseline must FAIL)"
"$fractos" gate "$lc" --emit --scale 1.3 -o "$tmp/inflated.json"
if "$fractos" gate "$lc" --baseline "$tmp/inflated.json" >"$tmp/neg.out" 2>&1; then
  echo "bench-gate: FAIL — gate passed against a baseline inflated by 30%" >&2
  cat "$tmp/neg.out" >&2
  exit 1
fi
grep -q "result: FAIL" "$tmp/neg.out"

echo "== bench-gate: negative self-test (copy speedup below 2x must FAIL)"
sed 's/"speedup": [0-9.]*/"speedup": 1.95/' "$tmp/BENCH_copybw.json" \
  >"$tmp/slow_copy.json"
grep -q '"speedup": 1.95' "$tmp/slow_copy.json"
if "$fractos" gate "$tmp/slow_copy.json" \
  --baseline "$baselines/copybw_tiny.json" >"$tmp/floor.out" 2>&1; then
  echo "bench-gate: FAIL — gate passed a copy speedup of 1.95x" >&2
  cat "$tmp/floor.out" >&2
  exit 1
fi
grep -q "2x floor" "$tmp/floor.out"

echo "== bench-gate: --tiny without a path writes no JSON"
mkdir "$tmp/cwd"
bench_abs="$(cd "$(dirname "$bench")" && pwd)/$(basename "$bench")"
(cd "$tmp/cwd" && "$bench_abs" copybw --tiny >/dev/null)
if [ -e "$tmp/cwd/BENCH_copybw.json" ]; then
  echo "bench-gate: FAIL — copybw --tiny wrote BENCH_copybw.json" >&2
  exit 1
fi

echo "== bench-gate OK"
