// Sec. 4.3.3: the choice of VC allocator does not significantly affect
// network-level latency-throughput behaviour (the result the paper states
// without a figure "due to space constraints"). Sweeps all three VC
// allocator architectures on the most VC-rich design points, where
// differences would be largest if they existed.
//
// Each (design point, VC allocator kind) curve is one warm-fork CurveSpec
// on the sweep engine (warm once at the lowest rate, fork per load point).
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "bench/curve_util.hpp"
#include "noc/sim.hpp"

using namespace nocalloc;
using namespace nocalloc::noc;

namespace {

constexpr AllocatorKind kKinds[] = {AllocatorKind::kSeparableInputFirst,
                                    AllocatorKind::kSeparableOutputFirst,
                                    AllocatorKind::kWavefront};

struct Config {
  const char* label;
  TopologyKind topo;
  std::size_t c;
  double max_rate;
};

constexpr Config kConfigs[] = {
    {"mesh 2x1x4", TopologyKind::kMesh8x8, 4, 0.50},
    {"fbfly 2x2x4", TopologyKind::kFbfly4x4, 4, 0.80},
};

sweep::CurveSpec make_spec(const Config& c, AllocatorKind kind) {
  const bool fast = bench::fast_mode();
  sweep::CurveSpec spec;
  spec.base.topology = c.topo;
  spec.base.vcs_per_class = c.c;
  spec.base.vc_alloc = kind;
  spec.base.warmup_cycles = fast ? 600 : 2000;
  spec.base.measure_cycles = fast ? 1200 : 4000;
  spec.base.drain_cycles = fast ? 1200 : 4000;
  spec.rates = bench::rate_grid(0.05, c.max_rate, 0.1);
  spec.fork_warmup_cycles = fast ? 400 : 1000;
  return spec;
}

}  // namespace

int main() {
  bench::heading("Sec. 4.3.3: network-level insensitivity to the VC "
                 "allocator");

  const std::size_t kinds = std::size(kKinds);
  const std::size_t configs = std::size(kConfigs);

  std::vector<sweep::CurveSpec> specs;
  for (std::size_t t = 0; t < configs * kinds; ++t) {
    specs.push_back(make_spec(kConfigs[t / kinds], kKinds[t % kinds]));
  }
  const auto curves = sweep::run_warm_curves(bench::pool(), specs);

  for (std::size_t ci = 0; ci < configs; ++ci) {
    bench::subheading(kConfigs[ci].label);
    double min_sat = 1e9, max_sat = 0.0;
    double min_zll = 1e9, max_zll = 0.0;
    for (std::size_t k = 0; k < kinds; ++k) {
      const bench::CurveSummary s = bench::summarize_curve(
          curves[ci * kinds + k], /*sat_with_accepted=*/false);
      std::printf("  vc_alloc=%s\n%s\n", to_string(kKinds[k]).c_str(),
                  s.line.c_str());
      std::printf("    zero-load %.1f cycles, saturation %.3f "
                  "flits/terminal/cycle\n",
                  s.zero_load_latency, s.max_accepted);
      min_sat = std::min(min_sat, s.max_accepted);
      max_sat = std::max(max_sat, s.max_accepted);
      min_zll = std::min(min_zll, s.zero_load_latency);
      max_zll = std::max(max_zll, s.zero_load_latency);
    }
    std::printf("  spread across VC allocators: zero-load %.1f%%, saturation "
                "%.1f%%\n",
                100 * (max_zll / min_zll - 1.0),
                100 * (max_sat / min_sat - 1.0));
  }

  bench::subheading("summary vs paper");
  std::printf("paper: \"both zero-load latency and saturation bandwidth "
              "remain virtually unchanged\"\nacross VC allocator choices; "
              "spreads above should be within a few percent.\n");
  return 0;
}
