#!/bin/sh
# Runs every bench binary; output accumulates into bench_output.txt (and
# per-binary copies under bench_results/). Progress and failures are logged
# to bench_results/progress.log, which always ends with FULL_BENCH_DONE.
# Each bench's wall-clock seconds are recorded next to its completion line.
# The microbenches additionally write machine-readable summaries
# (bench_results/BENCH_{alloc,sim,sweep,netlist}.json) so the perf
# trajectory across commits can be diffed without parsing the tables.
#
# Environment knobs:
#   BENCH_FAST=1           -- reduced-fidelity smoke run (sets NOCALLOC_BENCH_FAST)
#   BENCH_TIMEOUT=secs     -- per-binary timeout for kernel/cost benches
#                             (default 5400 full / 600 fast)
#   BENCH_NET_TIMEOUT=secs -- timeout tier for the network-simulation benches
#                             (fig13/fig14/vc insensitivity/ablations/
#                             microbenches), which run thousands of simulated
#                             cycles per data point and dominate total wall
#                             clock (default 10800 full / 1200 fast)
#   NOCALLOC_THREADS=N     -- sweep-pool threads for the parallel benches
cd "$(dirname "$0")" || exit 1
rm -f bench_output.txt
mkdir -p bench_results
: > bench_results/progress.log
log() { echo "[$(date +%H:%M:%S)] $*" >> bench_results/progress.log; }

if [ "${BENCH_FAST:-0}" = "1" ]; then
  export NOCALLOC_BENCH_FAST=1
  timeout_secs="${BENCH_TIMEOUT:-600}"
  net_timeout_secs="${BENCH_NET_TIMEOUT:-1200}"
  log "BENCH_FAST=1: reduced-fidelity smoke mode"
else
  timeout_secs="${BENCH_TIMEOUT:-5400}"
  net_timeout_secs="${BENCH_NET_TIMEOUT:-10800}"
fi

# Refuse to record timings from a Debug or sanitizer build: the stamp is
# written by CMake at configure time (build type + SANITIZE value).
build_type=$(cat build/nocalloc_build_type 2>/dev/null)
case "$build_type" in
  Release|RelWithDebInfo|MinSizeRel)
    log "build type $build_type ok" ;;
  *)
    log "REFUSING to bench: build type '$build_type' is not a release build"
    log "FULL_BENCH_DONE"
    exit 1 ;;
esac

# Network-level benches simulate full latency-vs-load curves and get the
# longer timeout tier; everything else (allocator kernels, cost models)
# finishes in seconds and keeps the short one.
is_net_bench() {
  case "$1" in
    fig13_sa_network|fig14_speculation|vc_network_insensitivity|\
    ablation_ugal_threshold|ablation_buffer_depth|ablation_multi_iteration|\
    microbench_sim|microbench_sweep) return 0 ;;
    *) return 1 ;;
  esac
}

# Machine-readable summary file for the benches that emit one (empty
# disables the emission).
json_for() {
  case "$1" in
    microbench_allocators) echo "bench_results/BENCH_alloc.json" ;;
    microbench_sim) echo "bench_results/BENCH_sim.json" ;;
    microbench_sweep) echo "bench_results/BENCH_sweep.json" ;;
    microbench_netlist) echo "bench_results/BENCH_netlist.json" ;;
    *) echo "" ;;
  esac
}

for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  n=$(basename "$b")
  if is_net_bench "$n"; then
    t="$net_timeout_secs"
  else
    t="$timeout_secs"
  fi
  log "running $n (timeout ${t}s)"
  start_s=$(date +%s)
  NOCALLOC_BENCH_JSON=$(json_for "$n") timeout "$t" "$b" \
    > "bench_results/$n.txt" 2>&1
  status=$?
  wall_s=$(( $(date +%s) - start_s ))
  if [ "$status" -eq 124 ]; then
    log "TIMEOUT $n after ${t}s (partial output kept)"
  elif [ "$status" -ne 0 ]; then
    log "FAILED $n (exit $status, ${wall_s}s)"
  else
    log "done $n (${wall_s}s)"
  fi
  cat "bench_results/$n.txt" >> bench_output.txt
done
log "FULL_BENCH_DONE"
