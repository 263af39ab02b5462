#include "sweep/sim_batch.hpp"

#include <memory>

#include "common/check.hpp"
#include "sweep/sweep_cache.hpp"

namespace nocalloc::sweep {

namespace {

/// The config a curve's design point is warmed under: the base config at
/// the curve's lowest rate. Also the config every fork instance is built
/// from, and the identity of the curve's persistent warm snapshot.
noc::SimConfig warm_config(const CurveSpec& spec) {
  noc::SimConfig cfg = spec.base;
  cfg.injection_rate = spec.rates.front();
  return cfg;
}

/// Cache key of one curve point: the base config AT the point's rate,
/// plus the warm rate and fork-warmup length that shaped its history.
std::uint64_t point_key(const CurveSpec& spec, double rate) {
  noc::SimConfig cfg = spec.base;
  cfg.injection_rate = rate;
  return SweepCache::curve_point_key(cfg, spec.rates.front(),
                                     spec.fork_warmup_cycles);
}

/// Runs one fork of a warm curve: restore, switch the offered load, let the
/// queues adjust, then measure. Pure function of (instance state, spec,
/// rate), so forks are reproducible wherever they run.
noc::SimResult fork_point(noc::SimInstance& sim, const noc::SimSnapshot& warm,
                          const CurveSpec& spec, double rate) {
  sim.restore(warm);
  sim.set_injection_rate(rate);
  sim.run_cycles(spec.fork_warmup_cycles);
  return sim.measure_and_drain();
}

/// Produces the warm state of a design point: from the persistent snapshot
/// store when a valid file exists (snapshots are canonical bytes, so a
/// disk round-trip restores bit-identically), else by paying the cold
/// warmup once -- and persisting it for every future run and process.
void ensure_warm(const SweepCache* cache, const CurveSpec& spec,
                 noc::SimSnapshot& out) {
  const noc::SimConfig cfg = warm_config(spec);
  if (cache != nullptr && cache->lookup_snapshot(cfg, out)) return;
  noc::SimInstance sim(cfg);
  sim.warmup();
  sim.snapshot(out);
  if (cache != nullptr) cache->store_snapshot(cfg, out);
}

/// One curve as a single serial task: fork every rate in order, stopping at
/// the first saturated point. The warm state -- and with it the whole
/// SimInstance -- is materialized lazily, on the first point the cache
/// cannot answer; a fully cached curve simulates nothing.
Curve run_curve_serial(const SweepCache* cache, const CurveSpec& spec) {
  Curve curve;
  curve.points.resize(spec.rates.size());
  for (std::size_t p = 0; p < spec.rates.size(); ++p) {
    curve.points[p].rate = spec.rates[p];
  }
  if (spec.rates.empty()) return curve;

  std::unique_ptr<noc::SimInstance> sim;
  noc::SimSnapshot warm;
  for (std::size_t p = 0; p < spec.rates.size(); ++p) {
    CurvePoint& point = curve.points[p];
    std::uint64_t key = 0;
    if (cache != nullptr) {
      key = point_key(spec, spec.rates[p]);
      if (cache->lookup_result(key, point.result)) {
        point.run = true;
        if (spec.stop_at_saturation && point.result.saturated) break;
        continue;
      }
    }
    if (sim == nullptr) {
      ensure_warm(cache, spec, warm);
      sim = std::make_unique<noc::SimInstance>(warm_config(spec));
    }
    point.result = fork_point(*sim, warm, spec, spec.rates[p]);
    point.run = true;
    if (cache != nullptr) cache->store_result(key, point.result);
    if (spec.stop_at_saturation && point.result.saturated) break;
  }
  return curve;
}

/// One outstanding (sharded spec, rate) point and its cache key.
struct PointTask {
  std::size_t spec = 0;
  std::size_t point = 0;
  std::uint64_t key = 0;
};

}  // namespace

std::vector<Curve> run_warm_curves(ThreadPool& pool,
                                   const std::vector<CurveSpec>& specs) {
  for (const CurveSpec& spec : specs) {
    for (std::size_t p = 1; p < spec.rates.size(); ++p) {
      NOCALLOC_CHECK(spec.rates[p - 1] <= spec.rates[p]);
    }
  }
  const std::unique_ptr<SweepCache> cache = SweepCache::from_env();
  std::vector<Curve> curves(specs.size());
  std::vector<noc::SimSnapshot> warm(specs.size());

  // Saturation-stopped curves run whole (the early exit is inherently
  // sequential); the rest shard per (spec, rate). Resolve sharded points
  // against the cache up front, so a spec whose every point hits skips
  // even its warmup.
  std::vector<PointTask> tasks;
  std::vector<char> needs_warm(specs.size(), 0);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    if (specs[s].stop_at_saturation || specs[s].rates.empty()) continue;
    curves[s].points.resize(specs[s].rates.size());
    for (std::size_t p = 0; p < specs[s].rates.size(); ++p) {
      CurvePoint& point = curves[s].points[p];
      point.rate = specs[s].rates[p];
      std::uint64_t key = 0;
      if (cache != nullptr) {
        key = point_key(specs[s], specs[s].rates[p]);
        if (cache->lookup_result(key, point.result)) {
          point.run = true;
          continue;
        }
      }
      tasks.push_back(PointTask{s, p, key});
      needs_warm[s] = 1;
    }
  }

  // Phase 1, one task per spec: a full serial curve, or (for sharded specs
  // with outstanding points) the warmup + snapshot.
  pool.run_indexed(specs.size(), [&](std::size_t s) {
    if (!specs[s].stop_at_saturation && !specs[s].rates.empty()) {
      if (needs_warm[s] != 0) ensure_warm(cache.get(), specs[s], warm[s]);
    } else {
      curves[s] = run_curve_serial(cache.get(), specs[s]);
    }
  });

  // Phase 2: every outstanding (sharded spec, rate) pair is its own task
  // with a fresh SimInstance restored from the spec's warm snapshot.
  pool.run_indexed(tasks.size(), [&](std::size_t i) {
    const CurveSpec& spec = specs[tasks[i].spec];
    noc::SimInstance sim(warm_config(spec));
    CurvePoint& point = curves[tasks[i].spec].points[tasks[i].point];
    point.result =
        fork_point(sim, warm[tasks[i].spec], spec, spec.rates[tasks[i].point]);
    point.run = true;
    if (cache != nullptr) cache->store_result(tasks[i].key, point.result);
  });
  return curves;
}

}  // namespace nocalloc::sweep
