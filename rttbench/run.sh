#!/usr/bin/env bash
# Build and run the rtt benchmark from the root of an rtt checkout:
#
#   bash rttbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash rttbench/run.sh --selftest
#
# The build goes to _build; scratch spools, sockets and span dumps go to
# .rttbench. The last line of standard output is the run's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f rttbench/dune ]; then
  echo "rttbench: run from the root of an rtt checkout (dune-project, lib/ and rttbench/ are needed)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || { echo "rttbench: dune is not on PATH" >&2; exit 2; }
# the shared dune cache lives outside the checkout, so it stays off
DUNE_CACHE=disabled dune build --root . ./rttbench/rttbench.exe ./rttbench/selftest.exe >&2
mkdir -p .rttbench
if [ "${1:-}" = "--selftest" ]; then
  exec ./_build/default/rttbench/selftest.exe
fi
exec ./_build/default/rttbench/rttbench.exe "$@"
