// Tests for the sweep engine: thread-pool execution semantics, exception
// propagation, and the determinism contract -- parallel runs must be
// bit-identical to serial runs because every task derives its randomness
// from counter-based seeds and writes to its own result slot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/sim.hpp"
#include "quality/quality.hpp"
#include "sweep/sim_batch.hpp"
#include "sweep/sweep.hpp"
#include "sim_result_eq.hpp"

namespace nocalloc::sweep {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (std::size_t count : {0u, 1u, 3u, 100u, 1000u}) {
      std::vector<std::atomic<int>> hits(count);
      pool.run_indexed(count, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run_indexed(100,
                       [&](std::size_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must survive a throwing batch and run the next one normally.
  std::atomic<int> ran{0};
  pool.run_indexed(50, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 50);
}

// A mistyped NOCALLOC_THREADS must not silently fall back to the hardware
// thread count.
TEST(ThreadPoolDeathTest, DefaultThreadsRejectsMalformedEnvironment) {
  for (const char* value : {"abc", "0", "-2", "4x", " 4", ""}) {
    EXPECT_DEATH(
        {
          setenv("NOCALLOC_THREADS", value, 1);
          ThreadPool::default_threads();
        },
        "bad value '" + std::string(value) + "' for NOCALLOC_THREADS")
        << "value '" << value << "'";
  }
  const char* saved = std::getenv("NOCALLOC_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  setenv("NOCALLOC_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  if (saved != nullptr) {
    setenv("NOCALLOC_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("NOCALLOC_THREADS");
  }
}

TEST(TaskSeed, CounterBasedSeedsAreDistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    EXPECT_TRUE(seen.insert(task_seed(0x5EED, i)).second) << "i=" << i;
  }
  // Stable across runs/platforms: the sweep results published in
  // bench_results/ depend on these exact values.
  EXPECT_EQ(task_seed(1, 0), task_seed(1, 0));
  EXPECT_NE(task_seed(1, 0), task_seed(2, 0));
}

// A task body representative of real sweeps: burns an Rng stream derived
// from the task index. Any cross-task state sharing or order dependence
// would show up as a mismatch between pool sizes.
std::uint64_t churn(std::uint64_t base, std::size_t i) {
  Rng rng(task_seed(base, i));
  std::uint64_t acc = 0;
  const int n = 100 + static_cast<int>(i % 97);
  for (int k = 0; k < n; ++k) acc ^= rng.next() + k;
  return acc;
}

TEST(ParallelMap, BitIdenticalAcrossPoolSizes) {
  ThreadPool serial(1);
  const auto expected =
      parallel_map(serial, 500, [](std::size_t i) { return churn(99, i); });
  for (std::size_t threads : {2u, 3u, 8u}) {
    ThreadPool pool(threads);
    const auto got =
        parallel_map(pool, 500, [](std::size_t i) { return churn(99, i); });
    ASSERT_EQ(got, expected) << "threads=" << threads;
  }
}

// The fig07/fig12 composition: parallel_map over measure_*_quality, one
// fresh allocator and one task_seed stream per rate point. Under TSan this
// covers concurrent quality measurement, the per-thread Hopcroft-Karp
// scratch included.
TEST(QualitySweep, SaResultsIdenticalAcrossPoolSizes) {
  const std::vector<double> rates = {0.1, 0.3, 0.5, 0.7, 0.9};
  const auto point = [&](std::size_t i) {
    auto alloc = make_switch_allocator(
        {5, 4, AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin});
    Rng rng(task_seed(0xF00D, i));
    return quality::measure_sa_quality(*alloc, rates[i], 400, rng);
  };
  ThreadPool serial(1);
  const auto expected = parallel_map(serial, rates.size(), point);
  ASSERT_EQ(expected.size(), rates.size());
  for (std::size_t threads : {2u, 6u}) {
    ThreadPool pool(threads);
    const auto got = parallel_map(pool, rates.size(), point);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].rate, expected[i].rate) << "threads=" << threads;
      EXPECT_EQ(got[i].grants, expected[i].grants)
          << "threads=" << threads << " rate " << rates[i];
      EXPECT_EQ(got[i].max_grants, expected[i].max_grants)
          << "threads=" << threads << " rate " << rates[i];
    }
  }
}

TEST(QualitySweep, VcResultsIdenticalAcrossPoolSizes) {
  const VcPartition part = VcPartition::mesh(2, 2);
  const std::vector<double> rates = {0.2, 0.6, 1.0};
  const auto point = [&](std::size_t i) {
    VcAllocatorConfig cfg;
    cfg.ports = 5;
    cfg.partition = part;
    cfg.kind = AllocatorKind::kSeparableOutputFirst;
    auto alloc = make_vc_allocator(cfg);
    Rng rng(task_seed(7, i));
    return quality::measure_vc_quality(*alloc, part, rates[i], 300, rng);
  };
  ThreadPool serial(1);
  const auto expected = parallel_map(serial, rates.size(), point);
  for (std::size_t threads : {2u, 5u}) {
    ThreadPool pool(threads);
    const auto got = parallel_map(pool, rates.size(), point);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].grants, expected[i].grants) << "threads=" << threads;
      EXPECT_EQ(got[i].max_grants, expected[i].max_grants)
          << "threads=" << threads;
    }
  }
}

// A parallel sweep of full network simulations -- the fig13/fig14 workload
// shape -- with the invariant checker attached to every run: results must be
// bit-identical to the serial sweep, and no run may trip an invariant.
TEST(SimSweep, ParallelSimulationsDeterministicUnderInvariantChecker) {
  const auto sim_point = [](std::size_t i) {
    noc::SimConfig cfg;
    cfg.topology = noc::TopologyKind::kRing16;
    cfg.injection_rate = 0.02 + 0.03 * static_cast<double>(i % 3);
    cfg.sw_alloc = (i / 3) == 0 ? AllocatorKind::kSeparableInputFirst
                                : AllocatorKind::kWavefront;
    cfg.warmup_cycles = 300;
    cfg.measure_cycles = 600;
    cfg.drain_cycles = 1200;
    cfg.seed = task_seed(0xBEEF, i);
    cfg.check_invariants = true;
    return noc::run_simulation(cfg);
  };
  ThreadPool serial(1);
  const auto expected = parallel_map(serial, 6, sim_point);
  ThreadPool pool(4);
  const auto got = parallel_map(pool, 6, sim_point);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    noc::expect_identical(got[i], expected[i]);
  }
}

// A one-rate curve with no fork warmup -- warm at the rate, snapshot,
// restore into a fresh instance, measure -- is one cold run_simulation(),
// bit for bit, on every topology, checked or not, for any pool size. The
// UGAL-threshold ablation runs its independent simulations this way.
TEST(SimBatch, OneRateCurveEqualsColdSimulation) {
  const noc::TopologyKind topologies[] = {
      noc::TopologyKind::kMesh8x8, noc::TopologyKind::kFbfly4x4,
      noc::TopologyKind::kRing16, noc::TopologyKind::kTorus8x8};
  std::vector<CurveSpec> specs;
  for (const bool checked : {false, true}) {
    for (std::size_t i = 0; i < std::size(topologies); ++i) {
      CurveSpec spec;
      spec.base.topology = topologies[i];
      spec.base.sw_alloc = (i % 2) == 0 ? AllocatorKind::kSeparableInputFirst
                                        : AllocatorKind::kWavefront;
      spec.base.injection_rate = 0.05 + 0.05 * static_cast<double>(i % 3);
      spec.base.warmup_cycles = 200;
      spec.base.measure_cycles = 400;
      spec.base.drain_cycles = 1000;
      spec.base.seed = task_seed(0xFACE, i);
      spec.base.check_invariants = checked;
      spec.rates = {spec.base.injection_rate};
      spec.fork_warmup_cycles = 0;
      spec.stop_at_saturation = false;
      specs.push_back(spec);
    }
  }
  std::vector<noc::SimResult> cold;
  for (const CurveSpec& spec : specs) {
    cold.push_back(noc::run_simulation(spec.base));
  }
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const std::vector<Curve> curves = run_warm_curves(pool, specs);
    ASSERT_EQ(curves.size(), specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " spec " +
                   std::to_string(s));
      ASSERT_EQ(curves[s].points.size(), 1u);
      ASSERT_TRUE(curves[s].points[0].run);
      noc::expect_identical(curves[s].points[0].result, cold[s]);
    }
  }
}

CurveSpec small_curve(noc::TopologyKind topo, bool stop_at_saturation) {
  CurveSpec spec;
  spec.base.topology = topo;
  spec.base.warmup_cycles = 300;
  spec.base.measure_cycles = 400;
  spec.base.drain_cycles = 1200;
  spec.base.seed = 0xC0FFEE;
  spec.rates = {0.06, 0.12, 0.18};
  spec.fork_warmup_cycles = 200;
  spec.stop_at_saturation = stop_at_saturation;
  return spec;
}

// Warm-fork curves must be bit-identical across thread counts in both
// sharding modes: whole-curve tasks (stop_at_saturation) and fully
// per-point shards. The checked copies (every invariant plus route
// legality, on UGAL's Valiant routes too) must match the unchecked curves.
TEST(SimBatch, WarmCurvesIdenticalAcrossPoolSizes) {
  for (const bool stop : {true, false}) {
    std::vector<CurveSpec> specs = {
        small_curve(noc::TopologyKind::kMesh8x8, stop),
        small_curve(noc::TopologyKind::kFbfly4x4, stop),
    };
    const std::size_t unchecked = specs.size();
    for (std::size_t s = 0; s < unchecked; ++s) {
      CurveSpec checked = specs[s];
      checked.base.check_invariants = true;
      specs.push_back(checked);
    }
    ThreadPool serial(1);
    const auto expected = run_warm_curves(serial, specs);
    ThreadPool pool(4);
    const auto got = run_warm_curves(pool, specs);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      ASSERT_EQ(got[s].points.size(), expected[s].points.size());
      for (std::size_t p = 0; p < got[s].points.size(); ++p) {
        const std::string where = "stop=" + std::to_string(stop) + " curve " +
                                  std::to_string(s) + " point " +
                                  std::to_string(p);
        EXPECT_EQ(got[s].points[p].rate, expected[s].points[p].rate) << where;
        ASSERT_EQ(got[s].points[p].run, expected[s].points[p].run) << where;
        if (got[s].points[p].run) {
          SCOPED_TRACE(where);
          noc::expect_identical(got[s].points[p].result,
                                expected[s].points[p].result);
        }
      }
    }
    for (std::size_t s = unchecked; s < got.size(); ++s) {
      const auto& plain = got[s - unchecked].points;
      ASSERT_EQ(got[s].points.size(), plain.size());
      for (std::size_t p = 0; p < plain.size(); ++p) {
        const std::string where = "stop=" + std::to_string(stop) +
                                  " checked curve " + std::to_string(s) +
                                  " point " + std::to_string(p);
        ASSERT_EQ(got[s].points[p].run, plain[p].run) << where;
        if (plain[p].run) {
          SCOPED_TRACE(where);
          noc::expect_identical(got[s].points[p].result, plain[p].result);
        }
      }
    }
  }
}

// The two sharding modes agree with each other on unsaturated curves (no
// early exit to differ on): per-point forks from a fresh instance match the
// whole-curve task's in-place forks.
TEST(SimBatch, ShardingModesAgreeBelowSaturation) {
  ThreadPool pool(4);
  const auto serial_mode =
      run_warm_curves(pool, {small_curve(noc::TopologyKind::kMesh8x8, true)});
  const auto sharded_mode =
      run_warm_curves(pool, {small_curve(noc::TopologyKind::kMesh8x8, false)});
  ASSERT_EQ(serial_mode.size(), 1u);
  ASSERT_EQ(sharded_mode.size(), 1u);
  ASSERT_EQ(serial_mode[0].points.size(), sharded_mode[0].points.size());
  for (std::size_t p = 0; p < serial_mode[0].points.size(); ++p) {
    ASSERT_TRUE(serial_mode[0].points[p].run);
    ASSERT_TRUE(sharded_mode[0].points[p].run);
    SCOPED_TRACE("point " + std::to_string(p));
    noc::expect_identical(sharded_mode[0].points[p].result,
                          serial_mode[0].points[p].result);
  }
}

}  // namespace
}  // namespace nocalloc::sweep
