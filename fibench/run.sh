#!/usr/bin/env bash
# Build the benchmark from source and run it from the repository root:
#   bash fibench/run.sh --workload paper-pairs --seed 1 --seconds 20 --trace 0
# Working files (run directories, temporary engine segments, traces) go
# under .fibench/ of the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "fibench: $(pwd) is not a source checkout of this repository" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./fibench/main.exe 1>&2
mkdir -p .fibench/tmp
export TMPDIR="$PWD/.fibench/tmp"
# Not exec'd: a process inherits its predecessor's reaped-children
# rusage across exec, and the build above is such a child.
./_build/default/fibench/main.exe "$@"
