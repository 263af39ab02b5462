// The four nocbench workloads. Each is a closed batch job of fixed size
// (the "job"), run back to back until the measuring window ends; a job's
// canonical output text is what the goldens pin.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"

namespace nocbench {

inline constexpr std::array<const char*, 4> kWorkloadNames = {
    "fig13_sweep", "fbfly_wf_single", "mesh_lowload_single",
    "quality_open_loop"};

/// Work counters of simulated networks, read through the public
/// Network/Router accessors.
struct NetCounters {
  std::uint64_t cycles = 0;
  std::uint64_t router_steps = 0;
  std::uint64_t router_steps_skipped = 0;
  std::uint64_t flits_ejected = 0;
  std::uint64_t flits_routed = 0;
  std::uint64_t vc_allocs = 0;
  std::uint64_t spec_used = 0;
  std::uint64_t misspeculations = 0;
  std::uint64_t arena_high_water = 0;  // max, not summed

  NetCounters& operator+=(const NetCounters& other);
};

/// Timing of one allocator's allocate() calls.
struct AllocProbe {
  LogHistogram ns;
  double seconds = 0.0;
};

/// Per-layer measurements summed over every traced job of a run.
struct Layers {
  std::size_t jobs = 0;

  // sweep
  Samples curve_s;
  double sweep_wall_s = 0.0;
  std::uint64_t points_run = 0;
  std::uint64_t points_saturated = 0;

  // sweep_cache
  LogHistogram lookup_ns;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  Samples store_us;
  double snapshot_bytes = 0.0;

  // noc
  double warmup_s = 0.0;
  double fork_warmup_s = 0.0;
  double measure_drain_s = 0.0;
  Samples snapshot_ms;
  Samples restore_ms;
  LogHistogram step_ns;
  NetCounters net;

  // vc / sa / quality: [protocol 0=vc 1=sa][family][design point]
  AllocProbe alloc[2][3][6];
  double measure_s[2] = {0.0, 0.0};
  std::uint64_t matrices[2] = {0, 0};
};

/// What one job produced.
struct JobOutput {
  std::string text;        // canonical results, one record per line
  double seconds = 0.0;    // host time of the timed phase
  Samples steps_ms;        // the workload's step timings
  std::uint64_t checks = 0;          // in-job cross-checks made...
  std::uint64_t check_failures = 0;  // ...and how many disagreed
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds everything the next job uses; timed as set-up.
  virtual void prepare() = 0;

  /// Runs one job on what prepare() built. With a tracer the job records
  /// spans and fills `layers`; its output text must not change.
  virtual JobOutput run(Tracer* tracer, Layers* layers) = 0;

  /// The job's canonical text computed through another public entry point
  /// (for example run_simulation() for a chunked SimInstance), or empty when
  /// the workload has none. Used when goldens are generated.
  virtual std::string reference() { return {}; }
};

/// Null for an unknown name. `tmp_dir` holds the sweep cache directories.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& tmp_dir);

/// Labels of the quality workload's design points and allocator families,
/// in Layers::alloc index order.
extern const std::array<const char*, 6> kDesignPointLabels;
extern const std::array<const char*, 3> kFamilyLabels;

}  // namespace nocbench
