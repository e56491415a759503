#!/usr/bin/env bash
# Benchmark entry point, run from the repository root:
#
#   bash bench/suite/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the suite from source with dune, then measures one workload.
# The last line of standard output is one JSON object with the
# end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
set -euo pipefail

# Keep every build output inside the checkout (_build), none in a
# shared user cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/suite/suite.exe 1>&2
exec ./_build/default/bench/suite/suite.exe bench "$@"
