// Netlist simulation throughput: scalar gate-by-gate interpretation vs the
// compiled bit-parallel engine (hw/netlist_program.hpp, 64 vectors per
// pass). One scalar iteration steps one input vector; one batch iteration
// steps 64 packed vectors, so items_per_second is directly comparable as
// vectors/second on both sides.
//
// After the calibrated table, two hard checks run (and set the exit code):
//
//   1. speedup: on the medium allocator netlists (P=10, V=4 switch
//      allocators) the compiled engine must deliver >= 20x the scalar
//      vectors/second -- the acceptance floor for the bit-parallel rewrite.
//
//   2. steady-state allocation: once constructed and warmed, neither
//      simulator may touch the heap while stepping (global operator
//      new/delete counter, same scheme as microbench_sim).
//
// Honors NOCALLOC_BENCH_FAST=1 / NOCALLOC_BENCH_MIN_TIME=s via minibench.
// NOCALLOC_BENCH_JSON names a file for a machine-readable summary of the
// acceptance-check numbers (run_benches.sh points it at
// bench_results/BENCH_netlist.json).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench/minibench.hpp"
#include "common/rng.hpp"
#include "hw/netlist_program.hpp"
#include "hw/netlist_sim.hpp"
#include "hw/sa_gen.hpp"
#include "hw/vc_alloc_gen.hpp"

// ---- Global allocation counter ---------------------------------------------

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

namespace nocalloc::hw {
namespace {

// ---- Design points ----------------------------------------------------------
// small:  5-port 2-VC separable input-first SA   (mesh router scale)
// medium: 10-port 4-VC separable input-first SA  (fbfly router scale; the
//         >= 20x acceptance point) and its wavefront sibling
// large:  10-port dense separable VC allocator over the 2x2x4 fbfly
//         partition (the biggest Fig. 5 style netlist in the bench set)

void build_sa(Netlist& nl, AllocatorKind kind, std::size_t ports,
              std::size_t vcs) {
  SaGenConfig cfg;
  cfg.ports = ports;
  cfg.vcs = vcs;
  cfg.kind = kind;
  cfg.arb = ArbiterKind::kRoundRobin;
  cfg.spec = SpecMode::kNonSpeculative;
  gen_switch_allocator(nl, cfg);
}

void build_vc_large(Netlist& nl) {
  VcAllocGenConfig cfg;
  cfg.ports = 10;
  cfg.partition = VcPartition::fbfly(2, 4);
  cfg.kind = AllocatorKind::kSeparableInputFirst;
  cfg.arb = ArbiterKind::kRoundRobin;
  cfg.sparse = false;
  gen_vc_allocator(nl, cfg);
}

using BuildFn = void (*)(Netlist&);

void build_small(Netlist& nl) {
  build_sa(nl, AllocatorKind::kSeparableInputFirst, 5, 2);
}
void build_medium_sep_if(Netlist& nl) {
  build_sa(nl, AllocatorKind::kSeparableInputFirst, 10, 4);
}
void build_medium_wf(Netlist& nl) {
  build_sa(nl, AllocatorKind::kWavefront, 10, 4);
}

// Pre-generated stimulus pool so the timed loop measures simulation, not
// random-number generation. Power-of-two size for cheap wraparound.
constexpr std::size_t kPool = 64;

void bm_scalar_step(benchmark::State& state, BuildFn build) {
  Netlist nl;
  build(nl);
  NetlistSimulator sim(nl);
  const std::size_t n = sim.num_inputs();
  Rng rng(0xBE11C4);
  std::vector<std::vector<bool>> pool(kPool, std::vector<bool>(n));
  for (auto& vec : pool) {
    for (std::size_t i = 0; i < n; ++i) vec[i] = rng.next_bool(0.5);
  }
  std::size_t k = 0;
  std::uint64_t acc = 0;
  for ([[maybe_unused]] auto _ : state) {
    const std::vector<bool>& out = sim.step(pool[k]);
    k = (k + 1) & (kPool - 1);
    acc += out[0] ? 1 : 0;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bm_batch_step(benchmark::State& state, BuildFn build) {
  Netlist nl;
  build(nl);
  BatchNetlistSimulator sim(nl);
  const std::size_t n = sim.num_inputs();
  Rng rng(0xBE11C4);
  std::vector<std::vector<std::uint64_t>> pool(
      kPool, std::vector<std::uint64_t>(n));
  for (auto& vec : pool) {
    for (std::size_t i = 0; i < n; ++i) vec[i] = rng.next();
  }
  std::vector<std::uint64_t> out(sim.num_outputs());
  std::size_t k = 0;
  std::uint64_t acc = 0;
  for ([[maybe_unused]] auto _ : state) {
    sim.step(pool[k], out);
    k = (k + 1) & (kPool - 1);
    acc += out[0];
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * BatchNetlistSimulator::kLanes));
}

// The ->Arg(0) is the run trigger (the harness executes one run per arg
// set); the argument itself is unused.
BENCHMARK_CAPTURE(bm_scalar_step, sa_sep_if_P5V2, build_small)->Arg(0);
BENCHMARK_CAPTURE(bm_batch_step, sa_sep_if_P5V2, build_small)->Arg(0);
BENCHMARK_CAPTURE(bm_scalar_step, sa_sep_if_P10V4, build_medium_sep_if)
    ->Arg(0);
BENCHMARK_CAPTURE(bm_batch_step, sa_sep_if_P10V4, build_medium_sep_if)
    ->Arg(0);
BENCHMARK_CAPTURE(bm_scalar_step, sa_wf_P10V4, build_medium_wf)->Arg(0);
BENCHMARK_CAPTURE(bm_batch_step, sa_wf_P10V4, build_medium_wf)->Arg(0);
BENCHMARK_CAPTURE(bm_scalar_step, vc_sep_if_P10_fbfly, build_vc_large)
    ->Arg(0);
BENCHMARK_CAPTURE(bm_batch_step, vc_sep_if_P10_fbfly, build_vc_large)
    ->Arg(0);

// ---- Acceptance checks ------------------------------------------------------

/// Scalar vectors/second over a fixed stimulus pool, with the steady-state
/// window bracketed by the heap counter.
double measure_scalar(const Netlist& nl, std::size_t vectors,
                      std::uint64_t* steady_allocs) {
  NetlistSimulator sim(nl);
  const std::size_t n = sim.num_inputs();
  Rng rng(7);
  std::vector<std::vector<bool>> pool(kPool, std::vector<bool>(n));
  for (auto& vec : pool) {
    for (std::size_t i = 0; i < n; ++i) vec[i] = rng.next_bool(0.5);
  }
  for (std::size_t i = 0; i < kPool; ++i) sim.step(pool[i]);  // warm

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const double t0 = benchmark::detail::wall_now();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < vectors; ++i) {
    acc += sim.step(pool[i & (kPool - 1)])[0] ? 1 : 0;
  }
  const double dt = benchmark::detail::wall_now() - t0;
  benchmark::DoNotOptimize(acc);
  *steady_allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  return static_cast<double>(vectors) / dt;
}

/// Batched vectors/second (64 per pass), same bracketing.
double measure_batch(const Netlist& nl, std::size_t passes,
                     std::uint64_t* steady_allocs) {
  BatchNetlistSimulator sim(nl);
  const std::size_t n = sim.num_inputs();
  Rng rng(7);
  std::vector<std::vector<std::uint64_t>> pool(
      kPool, std::vector<std::uint64_t>(n));
  for (auto& vec : pool) {
    for (std::size_t i = 0; i < n; ++i) vec[i] = rng.next();
  }
  std::vector<std::uint64_t> out(sim.num_outputs());
  for (std::size_t i = 0; i < kPool; ++i) sim.step(pool[i], out);  // warm

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const double t0 = benchmark::detail::wall_now();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < passes; ++i) {
    sim.step(pool[i & (kPool - 1)], out);
    acc += out[0];
  }
  const double dt = benchmark::detail::wall_now() - t0;
  benchmark::DoNotOptimize(acc);
  *steady_allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  return static_cast<double>(passes * BatchNetlistSimulator::kLanes) / dt;
}

int run_checks() {
  const bool fast = []() {
    const char* v = std::getenv("NOCALLOC_BENCH_FAST");
    return v != nullptr && std::strcmp(v, "1") == 0;
  }();
  const std::size_t scalar_vectors = fast ? 2000 : 20000;
  const std::size_t batch_passes = fast ? 2000 : 20000;

  struct Check {
    const char* label;
    BuildFn build;
    bool enforce_speedup;  // the medium netlists carry the >= 20x floor
  };
  const Check checks[] = {
      {"sa_sep_if_P5V2", build_small, false},
      {"sa_sep_if_P10V4", build_medium_sep_if, true},
      {"sa_wf_P10V4", build_medium_wf, true},
      {"vc_sep_if_P10_fbfly", build_vc_large, false},
  };

  std::printf("\nspeedup + zero-allocation checks "
              "(scalar %zu vectors, batch %zu passes)\n",
              scalar_vectors, batch_passes);
  std::printf("%-22s %14s %14s %9s %13s %13s\n", "netlist", "scalar vec/s",
              "batch vec/s", "speedup", "scalar allocs", "batch allocs");

  bool ok = true;
  std::string json =
      "{\n  \"bench\": \"microbench_netlist\",\n  \"netlists\": [\n";
  const std::size_t n_checks = sizeof(checks) / sizeof(checks[0]);
  for (std::size_t i = 0; i < n_checks; ++i) {
    const Check& c = checks[i];
    Netlist nl;
    c.build(nl);
    std::uint64_t scalar_allocs = 0, batch_allocs = 0;
    const double scalar = measure_scalar(nl, scalar_vectors, &scalar_allocs);
    const double batch = measure_batch(nl, batch_passes, &batch_allocs);
    const double speedup = batch / scalar;
    std::printf("%-22s %14.0f %14.0f %8.1fx %13llu %13llu\n", c.label, scalar,
                batch, speedup, static_cast<unsigned long long>(scalar_allocs),
                static_cast<unsigned long long>(batch_allocs));
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"label\": \"%s\", \"scalar_vec_per_s\": %.0f, "
                  "\"batch_vec_per_s\": %.0f, \"speedup\": %.1f, "
                  "\"steady_allocs\": %llu}%s\n",
                  c.label, scalar, batch, speedup,
                  static_cast<unsigned long long>(scalar_allocs +
                                                  batch_allocs),
                  i + 1 < n_checks ? "," : "");
    json += buf;
    if (scalar_allocs != 0 || batch_allocs != 0) {
      std::printf("ZERO-ALLOC FAIL: %s allocated in the steady state\n",
                  c.label);
      ok = false;
    }
    if (c.enforce_speedup && speedup < 20.0) {
      std::printf("SPEEDUP FAIL: %s batch/scalar %.1fx < 20x floor\n", c.label,
                  speedup);
      ok = false;
    }
  }
  json += "  ],\n  \"checks_pass\": ";
  json += ok ? "true" : "false";
  json += "\n}\n";
  const char* path = std::getenv("NOCALLOC_BENCH_JSON");
  if (path != nullptr && path[0] != '\0') {
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
    } else {
      std::printf("WARNING: could not write %s\n", path);
    }
  }
  std::printf(ok ? "netlist engine checks: PASS\n"
                 : "netlist engine checks: FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace nocalloc::hw

int main(int, char** argv) {
  const int bench_rc = benchmark::detail::run_all(argv[0]);
  const int check_rc = nocalloc::hw::run_checks();
  return bench_rc != 0 ? bench_rc : check_rc;
}
