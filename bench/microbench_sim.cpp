// End-to-end simulator throughput (cycles per wall-clock second) of one
// simulation, for the zero-allocation data path (packet arena, ring-buffer
// flit queues, active-set router scheduling) and the single-word allocator
// kernels every router stage runs.
//
// Two things are measured per design point:
//
//   1. cycles/s over a full warmup + measurement + drain run, against a
//      recorded baseline (see Point::baseline_cycles_per_sec).
//
//   2. heap traffic in the steady-state window (after warmup, before drain),
//      via a global operator new/delete counter. The cycle loop must be
//      allocation-free at every load and for every allocator family (the
//      kernels' request/grant scratch, wavefront cells included, is sized
//      up front): sub-saturation points reach their high-water capacities
//      during warmup, and saturated points -- where source backlog grows
//      without bound -- are pre-sized for the whole measured window via
//      Network::reserve_steady_state (offered load x window length bounds
//      everything the window can put into play).
//
// The first six points use the default separable input-first allocators at
// C = 1 across load; the per-family points run one simulation per allocator
// family (separable output-first, wavefront, matrix arbiters) at C > 1,
// ending with the wavefront torus at C = 8, where V = 64 fills the request
// word and the dense allocator stage was slowest.
//
// Honors NOCALLOC_BENCH_FAST=1 (run_benches.sh BENCH_FAST): shorter
// measurement window, same warmup, zero-allocation assertion still enforced.
// NOCALLOC_BENCH_JSON names a file to receive a machine-readable summary of
// the same numbers (run_benches.sh points it at BENCH_sim.json so the perf
// trajectory across commits is diffable without parsing the table).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <new>
#include <string>

#include "noc/sim.hpp"

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

namespace nocalloc::noc {
namespace {

double wall_now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Point {
  const char* label;
  TopologyKind topo;
  std::size_t vcs_per_class;
  AllocatorKind alloc;  // both VC and switch allocation
  ArbiterKind arb;      // both VC and switch arbiters
  double load;
  // cycles/s of an earlier simulator at this design point, recorded on the
  // reference host with the same phase lengths. For the C = 1 load points:
  // the pre-optimization simulator (shared_ptr packets, std::deque buffers,
  // every router stepped every cycle). For the per-family points: the dense
  // scalar allocator stage (per-VC byte requests, PV x PV wavefront sweep)
  // the sparse kernels replaced. Speedups printed against it are
  // indicative when run elsewhere.
  double baseline_cycles_per_sec;
};

struct RunOutcome {
  double cycles_per_sec = 0.0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steps_total = 0;
  std::uint64_t steps_skipped = 0;
  std::size_t arena_high_water = 0;
};

// Drives the SimInstance's network cycle by cycle (rather than through
// run_simulation) so the allocation counter can be bracketed around the
// steady-state window only: construction and warmup are allowed to
// allocate, the measured cycles are not.
RunOutcome run_point(const Point& pt, std::size_t warmup, std::size_t measure,
                     std::size_t drain) {
  SimConfig cfg;
  cfg.topology = pt.topo;
  cfg.vcs_per_class = pt.vcs_per_class;
  cfg.vc_alloc = pt.alloc;
  cfg.sw_alloc = pt.alloc;
  cfg.vc_arb = pt.arb;
  cfg.sw_arb = pt.arb;
  cfg.injection_rate = pt.load;
  cfg.seed = 1;

  const double t0 = wall_now();
  SimInstance sim(cfg);
  Network& net = sim.network();
  sim.run_cycles(warmup);

  // Saturated points accumulate backlog without bound, so the steady-state
  // containers would otherwise keep doubling; bound them for the window.
  net.reserve_steady_state(pt.load / 6.0, measure + drain);

  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  sim.run_cycles(measure);
  const std::uint64_t allocs_after =
      g_heap_allocs.load(std::memory_order_relaxed);

  net.set_generation_enabled(false);
  for (std::size_t i = 0; i < drain && net.in_flight() > 0; ++i) net.step();
  const double dt = wall_now() - t0;

  RunOutcome out;
  out.cycles_per_sec = static_cast<double>(net.perf().cycles) / dt;
  out.steady_allocs = allocs_after - allocs_before;
  out.steps_total = net.perf().router_steps_total;
  out.steps_skipped = net.perf().router_steps_skipped;
  out.arena_high_water = net.arena().high_water();
  return out;
}

int run_all() {
  const bool fast = []() {
    const char* v = std::getenv("NOCALLOC_BENCH_FAST");
    return v != nullptr && std::strcmp(v, "1") == 0;
  }();
  const std::size_t warmup = 2000;
  const std::size_t measure = fast ? 1000 : 10000;
  const std::size_t drain = fast ? 500 : 8000;

#ifdef NOCALLOC_BUILD_TYPE
  std::printf("Build type: %s\n", NOCALLOC_BUILD_TYPE);
  if (std::strcmp(NOCALLOC_BUILD_TYPE, "Debug") == 0) {
    std::printf("WARNING: Debug build; timings are not comparable\n");
  }
#endif
  std::printf("Simulator throughput (warmup %zu + measure %zu + drain %zu)\n",
              warmup, measure, drain);
  std::printf(
      "%-18s %12s %12s %8s %14s %10s %8s\n", "point", "cycles/s",
      "baseline", "speedup", "steady allocs", "skipped", "arena");

  using AK = AllocatorKind;
  using TK = TopologyKind;
  const ArbiterKind rr = ArbiterKind::kRoundRobin;
  const Point points[] = {
      {"mesh/low", TK::kMesh8x8, 1, AK::kSeparableInputFirst, rr, 0.02, 27771},
      {"mesh/medium", TK::kMesh8x8, 1, AK::kSeparableInputFirst, rr, 0.15,
       17541},
      {"mesh/saturation", TK::kMesh8x8, 1, AK::kSeparableInputFirst, rr, 0.90,
       12067},
      {"fbfly/low", TK::kFbfly4x4, 1, AK::kSeparableInputFirst, rr, 0.02,
       50020},
      {"fbfly/medium", TK::kFbfly4x4, 1, AK::kSeparableInputFirst, rr, 0.20,
       27155},
      {"fbfly/saturation", TK::kFbfly4x4, 1, AK::kSeparableInputFirst, rr,
       0.90, 16650},
      {"mesh/C=2/matrix", TK::kMesh8x8, 2, AK::kSeparableInputFirst,
       ArbiterKind::kMatrix, 0.15, 26510},
      {"fbfly/C=4/sep_of", TK::kFbfly4x4, 4, AK::kSeparableOutputFirst, rr,
       0.20, 23096},
      {"fbfly/C=4/wf", TK::kFbfly4x4, 4, AK::kWavefront, rr, 0.40,
       639},
      {"torus/C=8/wf", TK::kTorus8x8, 8, AK::kWavefront, rr, 0.15,
       68},
  };

  bool ok = true;
  std::string json = "{\n  \"bench\": \"microbench_sim\",\n  \"points\": [\n";
  const std::size_t n_points = sizeof(points) / sizeof(points[0]);
  for (std::size_t i = 0; i < n_points; ++i) {
    const Point& pt = points[i];
    const RunOutcome out = run_point(pt, warmup, measure, drain);
    const double skipped_pct =
        out.steps_total == 0
            ? 0.0
            : 100.0 * static_cast<double>(out.steps_skipped) /
                  static_cast<double>(out.steps_total);
    std::printf("%-18s %12.0f %12.0f %7.2fx %14llu %9.1f%% %8zu\n", pt.label,
                out.cycles_per_sec, pt.baseline_cycles_per_sec,
                out.cycles_per_sec / pt.baseline_cycles_per_sec,
                static_cast<unsigned long long>(out.steady_allocs),
                skipped_pct, out.arena_high_water);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"label\": \"%s\", \"cycles_per_sec\": %.0f, "
                  "\"baseline_cycles_per_sec\": %.0f, \"speedup\": %.3f, "
                  "\"steady_allocs\": %llu, \"steps_skipped_pct\": %.1f}%s\n",
                  pt.label, out.cycles_per_sec, pt.baseline_cycles_per_sec,
                  out.cycles_per_sec / pt.baseline_cycles_per_sec,
                  static_cast<unsigned long long>(out.steady_allocs),
                  skipped_pct, i + 1 < n_points ? "," : "");
    json += buf;
    if (out.steady_allocs != 0) {
      std::printf("ZERO-ALLOC FAIL: %s performed %llu heap allocations in "
                  "the steady-state window\n",
                  pt.label,
                  static_cast<unsigned long long>(out.steady_allocs));
      ok = false;
    }
  }
  json += "  ],\n  \"zero_alloc_pass\": ";
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
  std::printf(ok ? "zero-allocation check: PASS (all points, saturation "
                   "included)\n"
                 : "zero-allocation check: FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace nocalloc::noc

int main() { return nocalloc::noc::run_all(); }
