#!/bin/sh
# Smoke checks against already-built executables (no recursive dune, so
# the @check alias can run this from a dune action):
#   bin/smoke.sh <fractos.exe> <bench-main.exe>
# 1. `run --trace-json` must produce a valid Chrome trace with the
#    expected spans;
# 2. `bench fig5 --breakdown` must produce a non-empty CSV whose tax
#    categories sum exactly to each row's end-to-end latency, with
#    ctrl+fabric+queue+device covering >= 95 % of the aggregate;
# 3. the seeded chaos gate (bin/chaos.sh) must pass: fixed-seed fault
#    schedules settle with the failure-to-revocation invariants intact
#    and bit-identical reports per seed;
# 4. `run --audit` must print a capability lineage that reads
#    delegate -> invoke -> revoke.
set -eu

fractos=$1
bench=$2

tmp=$(mktemp -d /tmp/fractos-smoke.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

echo "== smoke: fractos run --trace-json"
"$fractos" run -n 2 --trace-json "$tmp/fv.json" >/dev/null

# the JSON itself is parsed by the chrome-trace golden test
# (test/obs/test_obs.ml); here check the CLI wiring
grep -q '"traceEvents"' "$tmp/fv.json"
grep -q '"ctrl.invoke"' "$tmp/fv.json"
grep -q '"sys.request_invoke"' "$tmp/fv.json"

echo "== smoke: bench fig5 --breakdown"
"$bench" fig5 --breakdown "$tmp/bd" >/dev/null
csv="$tmp/bd/fig5.csv"
test -s "$csv"
head -1 "$csv" | grep -q \
  'total_ns,ctrl_ns,fabric_ns,queue_ns,device_ns,client_ns,idle_ns'
awk -F, '
  NR > 1 {
    n++
    if ($6 + $7 + $8 + $9 + $10 + $11 != $5) {
      printf "row %d: categories sum to %d, total is %d\n", \
        NR, $6 + $7 + $8 + $9 + $10 + $11, $5
      bad++
    }
    total += $5
    tax += $6 + $7 + $8 + $9
  }
  END {
    if (n == 0) { print "no breakdown rows"; exit 1 }
    if (bad > 0) exit 1
    if (tax < 0.95 * total) {
      printf "tax categories cover only %.1f%% of latency\n", \
        100 * tax / total
      exit 1
    }
  }' "$csv"

echo "== smoke: seeded chaos gate (bin/chaos.sh)"
sh "$(dirname "$0")/chaos.sh" "$fractos"

echo "== smoke: fractos run --audit"
audit_out=$(a="$tmp/audit.txt"; "$fractos" run -n 2 --audit > "$a"; cat "$a")
for kind in delegate invoke revoke; do
  if ! printf '%s\n' "$audit_out" | grep -q " $kind "; then
    echo "audit lineage is missing a $kind event"
    exit 1
  fi
done

echo "== smoke OK"
