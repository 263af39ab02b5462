// Shared helpers for the figure-regeneration benches.
//
// Every bench prints the data series of one paper figure as plain text
// tables (one row per data point), followed by a summary of the headline
// numbers the paper quotes for that figure. What a figure runs -- the six
// design points, and the network figures' curves -- is defined in
// sweep/paper_figures; the benches only format it. Environment knobs:
//   NOCALLOC_BENCH_FAST=1  -- shorten simulations/trials (smoke mode)
//   NOCALLOC_THREADS=N     -- thread count for the sweep pool (default:
//                             hardware concurrency)
//
// The benches parallelize over independent curves/data points via the sweep
// engine: each task owns its allocator and Rng (the same per-curve seeds the
// serial loops used), results are collected as preformatted strings indexed
// by task, and printed in order -- so the output is byte-identical for any
// thread count, including 1.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "noc/sim.hpp"
#include "noc/topology.hpp"
#include "sweep/paper_figures.hpp"
#include "sweep/sweep.hpp"
#include "vc/vc_partition.hpp"

namespace nocalloc::bench {

inline bool fast_mode() {
  const char* env = std::getenv("NOCALLOC_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

/// Shared sweep pool for the process (NOCALLOC_THREADS or hardware
/// concurrency threads).
inline sweep::ThreadPool& pool() {
  static sweep::ThreadPool p;
  return p;
}

/// printf into a std::string; tasks format rows with this instead of
/// printing, so the main thread can emit everything in deterministic order.
inline std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void subheading(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// One of the paper's six VC design points (Sec. 3, sweep/paper_figures):
/// label, router radix, and the M x R x C partition.
struct DesignPoint {
  const char* label;
  std::size_t ports;
  VcPartition partition;
};

inline std::vector<DesignPoint> paper_design_points() {
  std::vector<DesignPoint> points;
  for (const sweep::PaperDesignPoint& dp : sweep::paper_design_points()) {
    points.push_back({dp.label, noc::make_topology(dp.topology)->ports(),
                      noc::partition_for(dp.topology, dp.vcs_per_class)});
  }
  return points;
}

}  // namespace nocalloc::bench
