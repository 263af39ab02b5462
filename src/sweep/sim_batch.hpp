// The cached simulation engine: latency-vs-load curves on the pool.
//
// The paper's network figures are built from dozens of (design point,
// offered load, seed) simulations. run_warm_curves amortizes warmup across
// a latency-vs-load curve: the design point is warmed once at the curve's
// lowest rate, the warm state is captured with SimInstance::snapshot(),
// and every load point forks from that snapshot (restore + set rate + a
// short fork warmup + measure) instead of re-simulating thousands of cold
// warmup cycles. A one-rate curve with no fork warmup is exactly one cold
// run_simulation(), bit for bit, so independent single simulations (the
// UGAL-threshold ablation) are one-rate curves too.
//
// Isolation and determinism: every task owns a full SimInstance -- its own
// PacketArena, rings, allocator state, and RNG streams (seeded from the
// config; multi-seed sweeps derive those seeds with task_seed) -- so
// shards share nothing and results are bit-identical for every thread
// count, 1 included.
//
// Persistent caching: when NOCALLOC_SWEEP_CACHE names a directory,
// run_warm_curves consults a content-keyed result cache
// (sweep/sweep_cache) before scheduling and stores finished points back --
// repeated figure runs become cache hits, and curve warmups are served
// from a persistent warm-snapshot store instead of re-simulated. Because
// points are pure functions of their configs and snapshots are canonical
// bytes, cached, cold, and cache-disabled runs return bit-identical
// results.
#pragma once

#include <cstddef>
#include <vector>

#include "noc/sim.hpp"
#include "sweep/sweep.hpp"

namespace nocalloc::sweep {

/// One latency-vs-load curve over a fixed design point.
struct CurveSpec {
  /// Design point; its injection_rate is ignored (rates[] drives it) and
  /// its warmup_cycles are paid exactly once, at rates.front().
  noc::SimConfig base;
  /// Offered flit rates, lowest first (the warmup point).
  std::vector<double> rates;
  /// Cycles simulated after forking the warm state at a new rate, before
  /// measurement starts: long enough for queues to adjust from the warmup
  /// rate's steady state to the fork's offered load.
  std::size_t fork_warmup_cycles = 1000;
  /// When true, the curve stops at its first saturated point (the paper's
  /// curves end at saturation) and runs as ONE task, forking rates in
  /// order within it. When false, every (design point, rate) pair becomes
  /// its own shard: phase 1 warms and snapshots each design point in
  /// parallel, phase 2 forks all load points in parallel. The figure
  /// benches stop at saturation; tools/nocsweep prints every rate.
  bool stop_at_saturation = true;
};

struct CurvePoint {
  double rate = 0.0;
  /// False when the point was skipped past saturation (stop_at_saturation).
  bool run = false;
  noc::SimResult result;
};

/// Results for one CurveSpec, points in rates[] order.
struct Curve {
  std::vector<CurvePoint> points;
};

/// Warm-fork sweep over several curves; see CurveSpec for the sharding
/// granularity. Results are bit-identical across thread counts.
std::vector<Curve> run_warm_curves(ThreadPool& pool,
                                   const std::vector<CurveSpec>& specs);

}  // namespace nocalloc::sweep
