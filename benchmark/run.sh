#!/usr/bin/env bash
# Builds nocbench (Release, into build-bench/) and runs one workload from the
# repository root:
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# prints every metric by name with its unit, and as its last line one JSON
# object {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
# spans are also written to build-bench/trace/NAME.seedN.jsonl.
#
#   benchmark/run.sh --sets N --runs R [--seed S]
#
# runs every workload R times per set (seeds S..S+R-1) and compares the sets
# against the bounds in BENCHMARK.json; see benchmark/sets.py.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/build-bench"

for arg in "$@"; do
  if [[ "$arg" == "--sets" || "$arg" == "--runs" ]]; then
    exec python3 "$root/benchmark/sets.py" "$@"
  fi
done

mkdir -p "$build"
log="$build/build.log"
if ! { cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" --target nocbench -j "$(nproc)"; } >"$log" 2>&1; then
  tail -n 20 "$log" >&2
  echo "run.sh: building nocbench failed (full log: $log)" >&2
  exit 1
fi

cores=$(nproc)
if ((cores < 4)); then
  echo "run.sh: warning: $cores cores; fig13_sweep uses a 4-thread pool" >&2
fi
sha=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)
echo "# run.sh sha=$sha nproc=$cores"

cd "$root"
exec "$build/nocbench" "$@"
