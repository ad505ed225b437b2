#!/bin/sh
# Repo health check: build, tests, formatting (if ocamlformat is
# installed), then every gate alias — @check (trace / breakdown / seeded
# chaos gate, including the chaos seed battery byte-diffed across
# domains=1 and domains=4 / audit; see bin/smoke.sh and bin/chaos.sh),
# @obs-smoke and @bench-gate. The gates run through dune,
# inside its sandbox, so a script input an alias forgets to declare fails
# loudly instead of being read from the source tree. Run from the repo
# root:
# ./bin/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed)"
fi

echo "== dune build @check @obs-smoke @bench-gate"
dune build @check @obs-smoke @bench-gate

echo "== OK"
