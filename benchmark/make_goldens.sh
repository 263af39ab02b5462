#!/usr/bin/env bash
# Regenerates benchmark/golden/: the full canonical output for seeds 1 and 2
# and an FNV-1a digest of it for seeds 1..32, for every workload. Each job is
# first checked against its reference entry point (see nocbench
# --golden-out). Goldens change only in a benchmark-only change; a
# performance change must reproduce them.
#
#   benchmark/make_goldens.sh          # about 25 minutes on 4 cores
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
golden="$root/benchmark/golden"
workloads=(fig13_sweep fbfly_wf_single mesh_lowload_single quality_open_loop)

mkdir -p "$golden" "$root/build-bench"
tmp=$(mktemp -d "$root/build-bench/golden.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

for w in "${workloads[@]}"; do
  for seed in $(seq 1 32); do
    out="$tmp/$w.seed$seed.txt"
    bash "$root/benchmark/run.sh" --workload "$w" --seed "$seed" \
      --golden-out "$out" | grep -v '^#' >>"$tmp/digests.txt"
    if ((seed <= 2)); then cp "$out" "$golden/"; fi
  done
done
cp "$tmp/digests.txt" "$golden/digests.txt"
