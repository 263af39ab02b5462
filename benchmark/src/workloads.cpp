#include "workloads.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>

#include <unistd.h>

#include "common/rng.hpp"
#include "noc/sim.hpp"
#include "quality/quality.hpp"
#include "sweep/sim_batch.hpp"
#include "sweep/sweep_cache.hpp"

namespace nocbench {

using namespace nocalloc;

const std::array<const char*, 6> kDesignPointLabels = {
    "mesh2x1x1", "mesh2x1x2", "mesh2x1x4",
    "fbfly2x2x1", "fbfly2x2x2", "fbfly2x2x4"};
const std::array<const char*, 3> kFamilyLabels = {"sep_if", "sep_of", "wf"};

namespace {

// ---- the paper's design points (Secs. 3 and 5.3.3) ----------------------

struct DesignPoint {
  noc::TopologyKind topo;
  std::size_t c;      // VCs per class
  std::size_t ports;  // router radix
  double max_rate;    // last offered load of the fig13 curve
};

constexpr DesignPoint kDesignPoints[] = {
    {noc::TopologyKind::kMesh8x8, 1, 5, 0.45},
    {noc::TopologyKind::kMesh8x8, 2, 5, 0.50},
    {noc::TopologyKind::kMesh8x8, 4, 5, 0.50},
    {noc::TopologyKind::kFbfly4x4, 1, 10, 0.60},
    {noc::TopologyKind::kFbfly4x4, 2, 10, 0.70},
    {noc::TopologyKind::kFbfly4x4, 4, 10, 0.80},
};

constexpr AllocatorKind kFamilies[] = {AllocatorKind::kSeparableInputFirst,
                                       AllocatorKind::kSeparableOutputFirst,
                                       AllocatorKind::kWavefront};

// ---- job sizes ------------------------------------------------------------
// Each job is sized to take a few seconds on a 4-core x86 host, so one
// measuring window holds several jobs and their median is steady.

// fig13_sweep: the figure bench's reduced-fidelity windows (its
// NOCALLOC_BENCH_FAST=1 setting), so seed 1 reproduces that output.
constexpr std::size_t kFig13Warmup = 600;
constexpr std::size_t kFig13Measure = 1200;
constexpr std::size_t kFig13Drain = 1200;
constexpr std::size_t kFig13ForkWarmup = 400;
constexpr std::size_t kFig13Threads = 4;
constexpr int kFig13Reruns = 50;

constexpr std::size_t kChunkCycles = 100;

constexpr double kQualityRates[] = {0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0};
constexpr std::size_t kQualitySteps = 10;
constexpr std::size_t kQualityTrials = 100;  // per step, rate and curve

// ---- formatting -----------------------------------------------------------

std::string strprintf(const char* fmt, ...) {
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

/// Every SimResult field, doubles with all 17 significant digits.
std::string format_result(const noc::SimResult& r) {
  return strprintf(
      "avg=%.17g net=%.17g p99=%.17g packets=%zu offered=%.17g "
      "accepted=%.17g saturated=%d spec_used=%llu misspec=%llu "
      "ugal_nonmin=%.17g cycles=%llu steps=%llu skipped=%llu arena_hw=%zu",
      r.avg_packet_latency, r.avg_network_latency, r.p99_packet_latency,
      r.packets_measured, r.offered_flit_rate, r.accepted_flit_rate,
      r.saturated ? 1 : 0, static_cast<unsigned long long>(r.spec_grants_used),
      static_cast<unsigned long long>(r.misspeculations),
      r.ugal_nonminimal_fraction,
      static_cast<unsigned long long>(r.cycles_simulated),
      static_cast<unsigned long long>(r.router_steps_total),
      static_cast<unsigned long long>(r.router_steps_skipped),
      r.arena_high_water);
}

NetCounters read_counters(noc::SimInstance& sim) {
  noc::Network& net = sim.network();
  NetCounters c;
  c.cycles = net.perf().cycles;
  c.router_steps = net.perf().router_steps_total;
  c.router_steps_skipped = net.perf().router_steps_skipped;
  c.flits_ejected = net.flits_ejected();
  for (std::size_t r = 0; r < net.topology().num_routers(); ++r) {
    const noc::RouterStats& s = net.router(static_cast<int>(r)).stats();
    c.flits_routed += s.flits_routed;
    c.vc_allocs += s.vc_allocs;
    c.spec_used += s.spec_grants_used;
    c.misspeculations += s.misspeculations;
  }
  c.arena_high_water = net.arena().high_water();
  return c;
}

/// Adds the work `sim` did since `before` was read to `acc`.
void add_work(NetCounters& acc, const NetCounters& before,
              noc::SimInstance& sim) {
  const NetCounters after = read_counters(sim);
  NetCounters delta;
  delta.cycles = after.cycles - before.cycles;
  delta.router_steps = after.router_steps - before.router_steps;
  delta.router_steps_skipped =
      after.router_steps_skipped - before.router_steps_skipped;
  delta.flits_ejected = after.flits_ejected - before.flits_ejected;
  delta.flits_routed = after.flits_routed - before.flits_routed;
  delta.vc_allocs = after.vc_allocs - before.vc_allocs;
  delta.spec_used = after.spec_used - before.spec_used;
  delta.misspeculations = after.misspeculations - before.misspeculations;
  delta.arena_high_water = after.arena_high_water;
  acc += delta;
}

std::uint64_t elapsed_ns(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

// ---- fig13_sweep ------------------------------------------------------------

/// Figure 13 (Sec. 5.3.3): 18 warm-fork latency-vs-load curves, six design
/// points x three switch allocators, through sweep::run_warm_curves on a
/// 4-thread pool with the persistent sweep cache on. A job is one cold pass
/// into a fresh cache directory (timed) followed by kFig13Reruns fully
/// cached passes (the steps), each checked against the cold pass.
///
/// Traced jobs replay every curve through SimInstance's public phases and
/// SweepCache's public lookups and stores, on the same pool, so each phase
/// can be timed; their output must equal run_warm_curves'.
class Fig13Sweep final : public Workload {
 public:
  Fig13Sweep(std::uint64_t seed, std::string tmp_dir)
      : seed_(seed), tmp_dir_(std::move(tmp_dir)) {}

  void prepare() override {
    pool_ = std::make_unique<sweep::ThreadPool>(kFig13Threads);
    specs_.clear();
    for (const DesignPoint& dp : kDesignPoints) {
      for (AllocatorKind sa : kFamilies) {
        sweep::CurveSpec spec;
        spec.base.topology = dp.topo;
        spec.base.vcs_per_class = dp.c;
        spec.base.sw_alloc = sa;
        spec.base.warmup_cycles = kFig13Warmup;
        spec.base.measure_cycles = kFig13Measure;
        spec.base.drain_cycles = kFig13Drain;
        spec.base.seed = seed_;
        // Same grid construction as the figure bench, so the rates are the
        // same doubles.
        for (double r = 0.05; r <= dp.max_rate + 1e-9; r += 0.05) {
          spec.rates.push_back(r);
        }
        spec.fork_warmup_cycles = kFig13ForkWarmup;
        specs_.push_back(spec);
      }
    }
  }

  JobOutput run(Tracer* tracer, Layers* layers) override {
    const std::string dir = fresh_cache_dir();
    JobOutput out = tracer != nullptr ? run_traced(dir, *tracer, *layers)
                                      : run_untraced(dir);
    std::filesystem::remove_all(dir);
    return out;
  }

  std::string reference() override {
    ::unsetenv("NOCALLOC_SWEEP_CACHE");
    return format_curves(sweep::run_warm_curves(*pool_, specs_));
  }

 private:
  std::string fresh_cache_dir() {
    std::filesystem::create_directories(tmp_dir_);
    const std::string dir =
        strprintf("%s/fig13-%d-%d", tmp_dir_.c_str(), static_cast<int>(::getpid()),
                  next_dir_++);
    std::filesystem::remove_all(dir);
    return dir;
  }

  JobOutput run_untraced(const std::string& dir) {
    ::setenv("NOCALLOC_SWEEP_CACHE", dir.c_str(), 1);
    JobOutput out;
    const Clock::time_point t0 = Clock::now();
    const std::vector<sweep::Curve> cold = sweep::run_warm_curves(*pool_, specs_);
    out.seconds = seconds_since(t0);
    out.text = format_curves(cold);
    for (int r = 0; r < kFig13Reruns; ++r) {
      const Clock::time_point t1 = Clock::now();
      const std::vector<sweep::Curve> warm =
          sweep::run_warm_curves(*pool_, specs_);
      out.steps_ms.add(seconds_since(t1) * 1e3);
      ++out.checks;
      if (format_curves(warm) != out.text) ++out.check_failures;
    }
    ::unsetenv("NOCALLOC_SWEEP_CACHE");
    return out;
  }

  JobOutput run_traced(const std::string& dir, Tracer& tracer, Layers& layers) {
    const sweep::SweepCache cache(dir);
    std::mutex mu;  // guards `layers` and `out` from pool threads
    JobOutput out;
    Span job(tracer, "fig13_sweep.job", 0);

    std::vector<sweep::Curve> curves(specs_.size());
    Span cold(tracer, "sweep.cold_pass", job.id());
    pool_->run_indexed(specs_.size(), [&](std::size_t s) {
      curves[s] = replay_curve(specs_[s], cache, tracer, cold.id(), layers, mu);
    });
    out.seconds = cold.close();
    layers.sweep_wall_s += out.seconds;
    out.text = format_curves(curves);

    for (int r = 0; r < kFig13Reruns; ++r) {
      Span rerun(tracer, "sweep_cache.rerun", job.id());
      pool_->run_indexed(specs_.size(), [&](std::size_t s) {
        const sweep::CurveSpec& spec = specs_[s];
        for (std::size_t p = 0; p < spec.rates.size(); ++p) {
          noc::SimResult hit;
          const Clock::time_point t0 = Clock::now();
          const bool found = cache.lookup_result(point_key(spec, p), hit);
          const std::uint64_t ns = elapsed_ns(t0);
          const bool same =
              found && curves[s].points[p].run &&
              format_result(hit) == format_result(curves[s].points[p].result);
          std::lock_guard<std::mutex> lock(mu);
          layers.lookup_ns.add(ns);
          ++layers.lookups;
          layers.hits += found ? 1 : 0;
          ++out.checks;
          out.check_failures += same ? 0 : 1;
          if (!found || hit.saturated) break;
        }
      });
    }
    return out;
  }

  static std::uint64_t point_key(const sweep::CurveSpec& spec, std::size_t p) {
    noc::SimConfig cfg = spec.base;
    cfg.injection_rate = spec.rates[p];
    return sweep::SweepCache::curve_point_key(cfg, spec.rates.front(),
                                              spec.fork_warmup_cycles);
  }

  /// One saturation-stopped curve the way run_warm_curves runs it against
  /// an empty cache: warm once at the lowest rate, snapshot and persist the
  /// warm state, then per rate restore, re-rate, fork-warm, measure, store.
  sweep::Curve replay_curve(const sweep::CurveSpec& spec,
                            const sweep::SweepCache& cache, Tracer& tracer,
                            std::uint64_t parent, Layers& layers,
                            std::mutex& mu) {
    Span curve_span(tracer, "sweep.curve", parent);
    sweep::Curve curve;
    curve.points.resize(spec.rates.size());
    noc::SimConfig warm_cfg = spec.base;
    warm_cfg.injection_rate = spec.rates.front();

    NetCounters work;
    double warmup_s = 0.0, fork_s = 0.0, measure_s = 0.0;
    Samples snapshot_ms, restore_ms, store_us;
    double snapshot_bytes = 0.0;
    std::uint64_t run = 0, saturated = 0;

    std::unique_ptr<noc::SimInstance> sim;
    noc::SimSnapshot warm;
    for (std::size_t p = 0; p < spec.rates.size(); ++p) {
      sweep::CurvePoint& point = curve.points[p];
      point.rate = spec.rates[p];
      // The cache directory is fresh, so lookups miss; they are made so the
      // replay does the cold pass's work.
      const std::uint64_t key = point_key(spec, p);
      cache.lookup_result(key, point.result);
      if (sim == nullptr) {
        cache.lookup_snapshot(warm_cfg, warm);
        {  // the warming instance is gone before the forking one is built
          noc::SimInstance cold(warm_cfg);
          const NetCounters before = read_counters(cold);
          {
            Span s(tracer, "noc.warmup", curve_span.id());
            cold.warmup();
            warmup_s += s.close();
          }
          add_work(work, before, cold);
          {
            Span s(tracer, "noc.snapshot", curve_span.id());
            cold.snapshot(warm);
            snapshot_ms.add(s.close() * 1e3);
          }
          {
            Span s(tracer, "sweep_cache.store_snapshot", curve_span.id());
            cache.store_snapshot(warm_cfg, warm);
            store_us.add(s.close() * 1e6);
          }
          snapshot_bytes += static_cast<double>(warm.network.bytes.size() +
                                                warm.driver.size());
        }
        sim = std::make_unique<noc::SimInstance>(warm_cfg);
      }
      {
        Span s(tracer, "noc.restore", curve_span.id());
        sim->restore(warm);
        restore_ms.add(s.close() * 1e3);
      }
      const NetCounters before = read_counters(*sim);
      sim->set_injection_rate(spec.rates[p]);
      {
        Span s(tracer, "noc.fork_warmup", curve_span.id());
        sim->run_cycles(spec.fork_warmup_cycles);
        fork_s += s.close();
      }
      {
        Span s(tracer, "noc.measure_drain", curve_span.id());
        point.result = sim->measure_and_drain();
        measure_s += s.close();
      }
      add_work(work, before, *sim);
      point.run = true;
      {
        Span s(tracer, "sweep_cache.store_result", curve_span.id());
        cache.store_result(key, point.result);
        store_us.add(s.close() * 1e6);
      }
      ++run;
      if (point.result.saturated) {
        ++saturated;
        break;
      }
    }
    const double curve_s = curve_span.close();

    std::lock_guard<std::mutex> lock(mu);
    layers.curve_s.add(curve_s);
    layers.points_run += run;
    layers.points_saturated += saturated;
    layers.warmup_s += warmup_s;
    layers.fork_warmup_s += fork_s;
    layers.measure_drain_s += measure_s;
    layers.snapshot_ms.add_all(snapshot_ms);
    layers.restore_ms.add_all(restore_ms);
    layers.store_us.add_all(store_us);
    layers.snapshot_bytes += snapshot_bytes;
    layers.net += work;
    return curve;
  }

  /// One block per curve: a header, the figure bench's "rate:" row (points
  /// past saturation are never run), and every SimResult field per point.
  std::string format_curves(const std::vector<sweep::Curve>& curves) const {
    std::string text;
    for (std::size_t s = 0; s < curves.size(); ++s) {
      text += strprintf("curve %s %s\n",
                        kDesignPointLabels[s / std::size(kFamilies)],
                        kFamilyLabels[s % std::size(kFamilies)]);
      std::string row = "    rate:";
      std::string records;
      for (const sweep::CurvePoint& point : curves[s].points) {
        if (!point.run) break;
        const noc::SimResult& r = point.result;
        records += strprintf("point rate=%.17g %s\n", point.rate,
                             format_result(r).c_str());
        if (r.saturated) {
          row += strprintf(" %.2f:SAT(acc=%.2f)", point.rate,
                           r.accepted_flit_rate);
          break;
        }
        row += strprintf(" %.2f:%.1f", point.rate, r.avg_packet_latency);
      }
      text += row + "\n" + records;
    }
    return text;
  }

  std::uint64_t seed_;
  std::string tmp_dir_;
  int next_dir_ = 0;
  std::unique_ptr<sweep::ThreadPool> pool_;
  std::vector<sweep::CurveSpec> specs_;
};

// ---- single simulations -----------------------------------------------------

/// One SimInstance, warmed as `chunks` timed run_cycles(kChunkCycles) calls
/// (the steps), then measured and drained. Traced jobs advance the warmup
/// one run_cycles(1) call at a time so each step lands in a histogram.
class SingleSim final : public Workload {
 public:
  SingleSim(const noc::SimConfig& cfg, std::size_t chunks)
      : cfg_(cfg), chunks_(chunks) {
    cfg_.warmup_cycles = chunks * kChunkCycles;
  }

  void prepare() override { sim_ = std::make_unique<noc::SimInstance>(cfg_); }

  JobOutput run(Tracer* tracer, Layers* layers) override {
    JobOutput out;
    const Clock::time_point t0 = Clock::now();
    noc::SimResult result;
    if (tracer == nullptr) {
      for (std::size_t c = 0; c < chunks_; ++c) {
        const Clock::time_point t1 = Clock::now();
        sim_->run_cycles(kChunkCycles);
        out.steps_ms.add(seconds_since(t1) * 1e3);
      }
      result = sim_->measure_and_drain();
    } else {
      result = run_traced(*tracer, *layers);
    }
    out.seconds = seconds_since(t0);
    out.text = format_result(result) + "\n";
    return out;
  }

  std::string reference() override {
    return format_result(noc::run_simulation(cfg_)) + "\n";
  }

 private:
  noc::SimResult run_traced(Tracer& tracer, Layers& layers) {
    Span job(tracer, "single_sim.job", 0);
    const NetCounters before = read_counters(*sim_);
    {
      Span warm(tracer, "noc.warmup", job.id());
      for (std::size_t c = 0; c < chunks_; ++c) {
        Span chunk(tracer, "noc.chunk", warm.id());
        for (std::size_t i = 0; i < kChunkCycles; ++i) {
          const Clock::time_point t0 = Clock::now();
          sim_->run_cycles(1);
          layers.step_ns.add(elapsed_ns(t0));
        }
      }
      layers.warmup_s += warm.close();
    }
    noc::SimResult result;
    {
      Span md(tracer, "noc.measure_drain", job.id());
      result = sim_->measure_and_drain();
      layers.measure_drain_s += md.close();
    }
    add_work(layers.net, before, *sim_);
    return result;
  }

  noc::SimConfig cfg_;
  std::size_t chunks_;
  std::unique_ptr<noc::SimInstance> sim_;
};

// ---- quality_open_loop ----------------------------------------------------

/// Forward to an allocator and time each allocate() call, the only call
/// measure_*_quality makes besides the shape accessors.
class TimedVcAllocator final : public VcAllocator {
 public:
  TimedVcAllocator(VcAllocator& inner, AllocProbe& probe)
      : VcAllocator(inner.ports(), inner.vcs()), inner_(inner), probe_(probe) {}
  void allocate(const std::vector<VcRequest>& req,
                std::vector<int>& grant) override {
    const Clock::time_point t0 = Clock::now();
    inner_.allocate(req, grant);
    const std::uint64_t ns = elapsed_ns(t0);
    probe_.ns.add(ns);
    probe_.seconds += static_cast<double>(ns) * 1e-9;
  }
  void reset() override { inner_.reset(); }

 private:
  VcAllocator& inner_;
  AllocProbe& probe_;
};

class TimedSwitchAllocator final : public SwitchAllocator {
 public:
  TimedSwitchAllocator(SwitchAllocator& inner, AllocProbe& probe)
      : SwitchAllocator(inner.ports(), inner.vcs()),
        inner_(inner),
        probe_(probe) {}
  void allocate(const std::vector<SwitchRequest>& req,
                std::vector<SwitchGrant>& grant) override {
    const Clock::time_point t0 = Clock::now();
    inner_.allocate(req, grant);
    const std::uint64_t ns = elapsed_ns(t0);
    probe_.ns.add(ns);
    probe_.seconds += static_cast<double>(ns) * 1e-9;
  }
  void reset() override { inner_.reset(); }

 private:
  SwitchAllocator& inner_;
  AllocProbe& probe_;
};

/// The Fig. 7 (VC) and Fig. 12 (switch) open-loop request models and
/// scoring, for the six design points and three allocator families: one
/// allocator and one Rng(task_seed(seed, curve)) per (protocol, design
/// point, family) curve. A job is kQualitySteps identical steps; each step
/// feeds every curve kQualityTrials random request matrices at each of the
/// seven rates through measure_*_quality, so steps cost the same and the
/// job scores kQualitySteps * kQualityTrials matrices per point. Allocator
/// priority state and Rng streams carry across steps.
class QualityOpenLoop final : public Workload {
 public:
  explicit QualityOpenLoop(std::uint64_t seed) : seed_(seed) {}

  void prepare() override {
    for (std::size_t d = 0; d < kPoints; ++d) {
      const DesignPoint& dp = kDesignPoints[d];
      const VcPartition partition = noc::partition_for(dp.topo, dp.c);
      for (std::size_t f = 0; f < kFams; ++f) {
        VcAllocatorConfig vc;
        vc.ports = dp.ports;
        vc.partition = partition;
        vc.kind = kFamilies[f];
        vc_[d][f] = make_vc_allocator(vc);
        sa_[d][f] = make_switch_allocator(
            {dp.ports, partition.total_vcs(), kFamilies[f],
             ArbiterKind::kRoundRobin});
      }
    }
  }

  JobOutput run(Tracer* tracer, Layers* layers) override {
    // Traced jobs drive the same allocators through timing decorators.
    VcAllocator* vc[kPoints][kFams];
    SwitchAllocator* sa[kPoints][kFams];
    std::vector<std::unique_ptr<VcAllocator>> timed_vc;
    std::vector<std::unique_ptr<SwitchAllocator>> timed_sa;
    for (std::size_t d = 0; d < kPoints; ++d) {
      for (std::size_t f = 0; f < kFams; ++f) {
        vc[d][f] = vc_[d][f].get();
        sa[d][f] = sa_[d][f].get();
        if (tracer == nullptr) continue;
        timed_vc.push_back(std::make_unique<TimedVcAllocator>(
            *vc[d][f], layers->alloc[0][f][d]));
        timed_sa.push_back(std::make_unique<TimedSwitchAllocator>(
            *sa[d][f], layers->alloc[1][f][d]));
        vc[d][f] = timed_vc.back().get();
        sa[d][f] = timed_sa.back().get();
      }
    }
    std::vector<Rng> rngs;
    for (std::size_t c = 0; c < 2 * kPoints * kFams; ++c) {
      rngs.emplace_back(sweep::task_seed(seed_, c));
    }
    std::vector<quality::QualityResult> totals(rngs.size() * kRates);

    JobOutput out;
    const std::uint64_t job_id =
        tracer != nullptr ? tracer->open("quality.job", 0) : 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t step = 0; step < kQualitySteps; ++step) {
      const std::uint64_t step_id =
          tracer != nullptr ? tracer->open("quality.step", job_id) : 0;
      const Clock::time_point t1 = Clock::now();
      for (int proto = 0; proto < 2; ++proto) {
        const char* call_name = proto == 0 ? "quality.measure_vc_quality"
                                           : "quality.measure_sa_quality";
        for (std::size_t d = 0; d < kPoints; ++d) {
          const DesignPoint& dp = kDesignPoints[d];
          const VcPartition partition = noc::partition_for(dp.topo, dp.c);
          for (std::size_t f = 0; f < kFams; ++f) {
            const std::size_t curve =
                (static_cast<std::size_t>(proto) * kPoints + d) * kFams + f;
            for (std::size_t r = 0; r < kRates; ++r) {
              const std::uint64_t call_id =
                  tracer != nullptr ? tracer->open(call_name, step_id) : 0;
              const Clock::time_point t2 = Clock::now();
              const quality::QualityResult q =
                  proto == 0
                      ? quality::measure_vc_quality(*vc[d][f], partition,
                                                    kQualityRates[r],
                                                    kQualityTrials, rngs[curve])
                      : quality::measure_sa_quality(*sa[d][f], kQualityRates[r],
                                                    kQualityTrials, rngs[curve]);
              if (tracer != nullptr) {
                layers->measure_s[proto] += seconds_since(t2);
                layers->matrices[proto] += kQualityTrials;
                tracer->close(call_id);
              }
              quality::QualityResult& total = totals[curve * kRates + r];
              total.grants += q.grants;
              total.max_grants += q.max_grants;
            }
          }
        }
      }
      out.steps_ms.add(seconds_since(t1) * 1e3);
      if (tracer != nullptr) tracer->close(step_id);
    }
    out.seconds = seconds_since(t0);
    if (tracer != nullptr) tracer->close(job_id);

    for (std::size_t c = 0; c < rngs.size(); ++c) {
      const std::size_t proto = c / (kPoints * kFams);
      for (std::size_t r = 0; r < kRates; ++r) {
        out.text += strprintf(
            "%s %s %s rate=%.17g grants=%llu max_grants=%llu\n",
            proto == 0 ? "vc" : "sa", kDesignPointLabels[c / kFams % kPoints],
            kFamilyLabels[c % kFams], kQualityRates[r],
            static_cast<unsigned long long>(totals[c * kRates + r].grants),
            static_cast<unsigned long long>(totals[c * kRates + r].max_grants));
      }
    }
    return out;
  }

 private:
  static constexpr std::size_t kPoints = std::size(kDesignPoints);
  static constexpr std::size_t kFams = std::size(kFamilies);
  static constexpr std::size_t kRates = std::size(kQualityRates);

  std::uint64_t seed_;
  std::unique_ptr<VcAllocator> vc_[kPoints][kFams];
  std::unique_ptr<SwitchAllocator> sa_[kPoints][kFams];
};

}  // namespace

NetCounters& NetCounters::operator+=(const NetCounters& o) {
  cycles += o.cycles;
  router_steps += o.router_steps;
  router_steps_skipped += o.router_steps_skipped;
  flits_ejected += o.flits_ejected;
  flits_routed += o.flits_routed;
  vc_allocs += o.vc_allocs;
  spec_used += o.spec_used;
  misspeculations += o.misspeculations;
  arena_high_water = std::max(arena_high_water, o.arena_high_water);
  return *this;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& tmp_dir) {
  if (name == "fig13_sweep") {
    return std::make_unique<Fig13Sweep>(seed, tmp_dir);
  }
  if (name == "fbfly_wf_single") {
    // The allocator-bound point: 2x2x4 flattened butterfly, wavefront VC
    // and switch allocation, speculative requests, near saturation.
    noc::SimConfig cfg;
    cfg.topology = noc::TopologyKind::kFbfly4x4;
    cfg.vcs_per_class = 4;
    cfg.vc_alloc = AllocatorKind::kWavefront;
    cfg.sw_alloc = AllocatorKind::kWavefront;
    cfg.spec = SpecMode::kPessimistic;
    cfg.injection_rate = 0.40;
    cfg.measure_cycles = 750;
    cfg.drain_cycles = 750;
    cfg.seed = seed;
    return std::make_unique<SingleSim>(cfg, 25);
  }
  if (name == "mesh_lowload_single") {
    // The allocator-light point: most router-steps are skipped by the
    // active-set scheduler.
    noc::SimConfig cfg;
    cfg.topology = noc::TopologyKind::kMesh8x8;
    cfg.vcs_per_class = 1;
    cfg.vc_alloc = AllocatorKind::kSeparableInputFirst;
    cfg.sw_alloc = AllocatorKind::kSeparableInputFirst;
    cfg.injection_rate = 0.02;
    cfg.measure_cycles = 100000;
    cfg.drain_cycles = 30000;
    cfg.seed = seed;
    return std::make_unique<SingleSim>(cfg, 5000);
  }
  if (name == "quality_open_loop") {
    return std::make_unique<QualityOpenLoop>(seed);
  }
  return nullptr;
}

}  // namespace nocbench
