// Sweep-engine microbenchmark: warm snapshot/restore cost, sharded
// multi-simulation scaling, and the persistent result cache
// (src/sweep/sim_batch, src/sweep/sweep_cache).
//
// Four things are measured:
//
//   1. Zero-allocation restore path: after a simulation instance has been
//      restored once (which may grow its arena and rings up to the
//      snapshot's capacities), every further restore + steady-state run
//      performs ZERO heap allocations -- the warm-fork inner loop recycles
//      storage exactly like the cycle loop does. Asserted via a global
//      operator new/delete counter; failure exits nonzero.
//
//   2. Warm-fork speedup per curve: a fig13-style latency curve forked from
//      one warm snapshot vs the same curve with a cold warmup per point,
//      both on one thread -- the algorithmic win, independent of cores.
//
//   3. Sharded sweep scaling: the same batch of curves on a 1-thread pool
//      vs an all-cores pool, with the results compared field by field --
//      the determinism contract -- and the wall-clock ratio reported. The
//      ratio depends on the host: on a single-core container it is ~1.0 by
//      construction; the >=4x target applies to hosts with >=8 cores.
//
//   4. Persistent result cache: the same curves with NOCALLOC_SWEEP_CACHE
//      pointed at a fresh directory, run cold (computing + storing) and
//      again warm (pure cache hits), on one thread -- the win is
//      independent of cores. All three result sets {cache off, cold,
//      cached} must be bit-identical; a mismatch fails the bench.
//
// Honors NOCALLOC_BENCH_FAST=1 (run_benches.sh BENCH_FAST) with shorter
// phases; the zero-allocation assertion is enforced in both modes.
// NOCALLOC_BENCH_JSON names a file for a machine-readable summary
// (run_benches.sh points it at bench_results/BENCH_sweep.json).
#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "noc/sim.hpp"
#include "sweep/sim_batch.hpp"

// ---- Global allocation counter ---------------------------------------------
// Counts every route into the heap. The handlers themselves must not
// allocate, so they sit directly on malloc/free.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace nocalloc {
namespace {

using noc::SimConfig;
using noc::SimInstance;
using noc::SimResult;
using noc::SimSnapshot;
using noc::TopologyKind;

double wall_now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

bool fast_mode() {
  const char* v = std::getenv("NOCALLOC_BENCH_FAST");
  return v != nullptr && std::strcmp(v, "1") == 0;
}

// ---- 1. Zero-allocation restore path ---------------------------------------

bool check_restore_allocs() {
  const bool fast = fast_mode();
  std::printf("\n-- restore-path heap traffic --\n");

  bool ok = true;
  for (const TopologyKind topo :
       {TopologyKind::kMesh8x8, TopologyKind::kFbfly4x4}) {
    SimConfig cfg;
    cfg.topology = topo;
    cfg.injection_rate = 0.15;  // sub-saturation: storage stops growing
    cfg.warmup_cycles = fast ? 800 : 2000;
    SimInstance sim(cfg);
    sim.warmup();
    SimSnapshot snap;
    sim.snapshot(snap);

    // First restore + run may still grow storage toward snapshot capacity;
    // from the second on, restore and the steady-state loop must both be
    // allocation-free.
    const std::size_t cycles = fast ? 500 : 2000;
    sim.restore(snap);
    sim.run_cycles(cycles);

    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    sim.restore(snap);
    sim.run_cycles(cycles);
    const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);

    const std::uint64_t n = after - before;
    std::printf("  %-10s restore + %zu cycles: %llu heap allocations\n",
                to_string(topo).c_str(), cycles,
                static_cast<unsigned long long>(n));
    if (n != 0) {
      std::printf("ZERO-ALLOC FAIL: warm restore path allocated\n");
      ok = false;
    }
  }
  return ok;
}

// ---- 2. Warm-fork vs cold-warmup curve (single thread) ----------------------

sweep::CurveSpec bench_spec(TopologyKind topo, std::size_t vcs) {
  const bool fast = fast_mode();
  sweep::CurveSpec spec;
  spec.base.topology = topo;
  spec.base.vcs_per_class = vcs;
  spec.base.warmup_cycles = fast ? 600 : 2000;
  spec.base.measure_cycles = fast ? 800 : 3000;
  spec.base.drain_cycles = fast ? 800 : 3000;
  for (double r = 0.05; r <= 0.30 + 1e-9; r += 0.05) spec.rates.push_back(r);
  spec.fork_warmup_cycles = fast ? 300 : 800;
  spec.stop_at_saturation = false;  // fixed work: comparable timings
  return spec;
}

/// cold_dt / warm_dt, the algorithmic warm-fork win.
double bench_warm_vs_cold() {
  std::printf("\n-- warm-fork vs cold-warmup curve (1 thread) --\n");
  const sweep::CurveSpec spec = bench_spec(TopologyKind::kMesh8x8, 2);
  sweep::ThreadPool serial(1);

  const double t0 = wall_now();
  const auto warm = sweep::run_warm_curves(serial, {spec});
  const double warm_dt = wall_now() - t0;

  // Cold reference, with no cache: every point pays the full warmup.
  const double t1 = wall_now();
  for (const double rate : spec.rates) {
    SimConfig cfg = spec.base;
    cfg.injection_rate = rate;
    noc::run_simulation(cfg);
  }
  const double cold_dt = wall_now() - t1;

  std::printf("  %zu-point curve: warm-fork %.3fs, cold-warmup %.3fs "
              "(%.2fx)\n",
              spec.rates.size(), warm_dt, cold_dt, cold_dt / warm_dt);
  (void)warm;
  return cold_dt / warm_dt;
}

// ---- 3. Sharded sweep scaling + determinism ---------------------------------

bool results_identical(const SimResult& a, const SimResult& b) {
  return a.avg_packet_latency == b.avg_packet_latency &&
         a.avg_network_latency == b.avg_network_latency &&
         a.p99_packet_latency == b.p99_packet_latency &&
         a.packets_measured == b.packets_measured &&
         a.accepted_flit_rate == b.accepted_flit_rate &&
         a.saturated == b.saturated &&
         a.spec_grants_used == b.spec_grants_used &&
         a.misspeculations == b.misspeculations &&
         a.cycles_simulated == b.cycles_simulated;
}

struct ScalingNumbers {
  bool identical = false;
  double speedup = 0.0;
  std::size_t threads = 1;
};

ScalingNumbers bench_scaling() {
  const std::size_t cores = std::thread::hardware_concurrency();
  std::printf("\n-- sharded sweep scaling (host reports %zu cores) --\n",
              cores);

  std::vector<sweep::CurveSpec> specs;
  for (const TopologyKind topo :
       {TopologyKind::kMesh8x8, TopologyKind::kFbfly4x4}) {
    for (const std::size_t vcs : {1, 2, 4}) {
      specs.push_back(bench_spec(topo, vcs));
    }
  }

  sweep::ThreadPool serial(1);
  const double t0 = wall_now();
  const auto curves_1 = sweep::run_warm_curves(serial, specs);
  const double dt_1 = wall_now() - t0;

  sweep::ThreadPool wide(cores == 0 ? 1 : cores);
  const double t1 = wall_now();
  const auto curves_n = sweep::run_warm_curves(wide, specs);
  const double dt_n = wall_now() - t1;

  bool identical = true;
  for (std::size_t s = 0; s < curves_1.size(); ++s) {
    for (std::size_t p = 0; p < curves_1[s].points.size(); ++p) {
      const auto& a = curves_1[s].points[p];
      const auto& b = curves_n[s].points[p];
      if (a.run != b.run ||
          (a.run && !results_identical(a.result, b.result))) {
        identical = false;
      }
    }
  }

  std::size_t shards = 0;
  for (const auto& c : curves_1) shards += c.points.size();
  std::printf("  %zu curves / %zu shards: 1 thread %.3fs, %zu threads %.3fs "
              "-> %.2fx\n",
              specs.size(), shards, dt_1, wide.size(), dt_n, dt_1 / dt_n);
  std::printf("  determinism (1 vs %zu threads): %s\n", wide.size(),
              identical ? "IDENTICAL" : "MISMATCH");
  std::printf("  note: the speedup is bounded by physical cores; the >=4x "
              "target assumes >=8 cores.\n");
  return ScalingNumbers{identical, dt_1 / dt_n, wide.size()};
}

// ---- 4. Persistent result cache: cold vs cached -----------------------------

struct CacheNumbers {
  bool identical = false;
  double cold_s = 0.0;
  double cached_s = 0.0;
};

bool curves_identical(const std::vector<sweep::Curve>& a,
                      const std::vector<sweep::Curve>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (a[s].points.size() != b[s].points.size()) return false;
    for (std::size_t p = 0; p < a[s].points.size(); ++p) {
      if (a[s].points[p].run != b[s].points[p].run) return false;
      if (a[s].points[p].run &&
          !results_identical(a[s].points[p].result, b[s].points[p].result)) {
        return false;
      }
    }
  }
  return true;
}

CacheNumbers bench_cache() {
  std::printf("\n-- persistent result cache: cold vs cached (1 thread) --\n");
  std::vector<sweep::CurveSpec> specs = {
      bench_spec(TopologyKind::kMesh8x8, 2),
      bench_spec(TopologyKind::kFbfly4x4, 2),
  };
  sweep::ThreadPool serial(1);  // serial: the cache win is core-independent

  // Reference results with the cache disabled.
  ::unsetenv("NOCALLOC_SWEEP_CACHE");
  const auto plain = sweep::run_warm_curves(serial, specs);

  char dir[] = "/tmp/nocalloc_bench_cache_XXXXXX";
  CacheNumbers out;
  if (::mkdtemp(dir) == nullptr) {
    std::printf("  SKIPPED: cannot create cache directory\n");
    return out;
  }
  ::setenv("NOCALLOC_SWEEP_CACHE", dir, 1);

  const double t0 = wall_now();
  const auto cold = sweep::run_warm_curves(serial, specs);
  out.cold_s = wall_now() - t0;

  const double t1 = wall_now();
  const auto cached = sweep::run_warm_curves(serial, specs);
  out.cached_s = wall_now() - t1;
  ::unsetenv("NOCALLOC_SWEEP_CACHE");

  out.identical =
      curves_identical(plain, cold) && curves_identical(plain, cached);

  std::size_t points = 0;
  for (const auto& spec : specs) points += spec.rates.size();
  std::printf("  %zu curves / %zu points: cold %.3fs, cached %.3fs "
              "(%.0fx)\n",
              specs.size(), points, out.cold_s, out.cached_s,
              out.cold_s / out.cached_s);
  std::printf("  identity across {cache off, cold, cached}: %s\n",
              out.identical ? "IDENTICAL" : "MISMATCH");

  // Scrub the throwaway cache directory.
  if (DIR* d = ::opendir(dir)) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      std::remove((std::string(dir) + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir);
  return out;
}

int run_all() {
#ifdef NOCALLOC_BUILD_TYPE
  std::printf("Build type: %s\n", NOCALLOC_BUILD_TYPE);
  if (std::strcmp(NOCALLOC_BUILD_TYPE, "Debug") == 0) {
    std::printf("WARNING: Debug build; timings are not comparable\n");
  }
#endif
  std::printf(
      "Sweep engine microbenchmark (sharding + warm snapshots + cache)\n");

  const bool zero_alloc = check_restore_allocs();
  const double warm_speedup = bench_warm_vs_cold();
  const ScalingNumbers scaling = bench_scaling();
  const CacheNumbers cache = bench_cache();
  const bool ok = zero_alloc && scaling.identical && cache.identical;

  char json[640];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"bench\": \"microbench_sweep\",\n"
      "  \"warm_fork_speedup\": %.2f,\n"
      "  \"scaling\": {\"threads\": %zu, \"speedup\": %.2f, "
      "\"deterministic\": %s},\n"
      "  \"cache\": {\"cold_s\": %.3f, \"cached_s\": %.3f, "
      "\"speedup\": %.1f, \"identical\": %s},\n"
      "  \"zero_alloc_pass\": %s\n"
      "}\n",
      warm_speedup, scaling.threads, scaling.speedup,
      scaling.identical ? "true" : "false", cache.cold_s, cache.cached_s,
      cache.cached_s > 0.0 ? cache.cold_s / cache.cached_s : 0.0,
      cache.identical ? "true" : "false", zero_alloc ? "true" : "false");
  const char* path = std::getenv("NOCALLOC_BENCH_JSON");
  if (path != nullptr && path[0] != '\0') {
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fputs(json, f);
      std::fclose(f);
    } else {
      std::printf("WARNING: could not write %s\n", path);
    }
  }

  std::printf(ok ? "\nsweep microbench checks: PASS\n"
                 : "\nsweep microbench checks: FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace nocalloc

int main() { return nocalloc::run_all(); }
