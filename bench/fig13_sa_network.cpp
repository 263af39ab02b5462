// Figure 13: average packet latency vs injection rate for the three switch
// allocator architectures across the six network design points (Sec. 5.3.3).
// Also prints the paper's conclusion-level numbers: the wavefront vs
// separable-input-first saturation gap on the flattened butterfly.
//
// Each (design point, allocator kind) latency curve is one CurveSpec for
// the warm-fork sweep engine: the design point is warmed once at the lowest
// rate, and every load point forks from that snapshot instead of paying a
// cold warmup. Simulations are pure functions of their SimConfig, so the
// parallel run reproduces the serial output byte for byte.
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
    {"mesh 2x1x1", TopologyKind::kMesh8x8, 1, 0.45},
    {"mesh 2x1x2", TopologyKind::kMesh8x8, 2, 0.50},
    {"mesh 2x1x4", TopologyKind::kMesh8x8, 4, 0.50},
    {"fbfly 2x2x1", TopologyKind::kFbfly4x4, 1, 0.60},
    {"fbfly 2x2x2", TopologyKind::kFbfly4x4, 2, 0.70},
    {"fbfly 2x2x4", TopologyKind::kFbfly4x4, 4, 0.80},
};

sweep::CurveSpec make_spec(TopologyKind topo, std::size_t c, AllocatorKind sa,
                           double max_rate) {
  const bool fast = bench::fast_mode();
  sweep::CurveSpec spec;
  spec.base.topology = topo;
  spec.base.vcs_per_class = c;
  spec.base.sw_alloc = sa;
  spec.base.warmup_cycles = fast ? 600 : 2000;
  spec.base.measure_cycles = fast ? 1200 : 5000;
  spec.base.drain_cycles = fast ? 1200 : 5000;
  spec.rates = bench::rate_grid(0.05, max_rate, 0.05);
  spec.fork_warmup_cycles = fast ? 400 : 1000;
  return spec;
}

}  // namespace

int main() {
  bench::heading("Figure 13: network latency vs injection rate per switch "
                 "allocator");
  std::printf("(entries are rate:avg-latency-in-cycles; SAT marks the "
              "saturation point)\n");

  const std::size_t kinds = std::size(kKinds);
  const std::size_t configs = std::size(kConfigs);

  std::vector<sweep::CurveSpec> specs;
  for (std::size_t t = 0; t < configs * kinds; ++t) {
    const Config& c = kConfigs[t / kinds];
    specs.push_back(make_spec(c.topo, c.c, kKinds[t % kinds], c.max_rate));
  }
  const auto curves = sweep::run_warm_curves(bench::pool(), specs);

  std::vector<bench::CurveSummary> results(curves.size());
  for (std::size_t t = 0; t < curves.size(); ++t) {
    results[t] = bench::summarize_curve(curves[t], /*sat_with_accepted=*/true);
  }

  for (std::size_t ci = 0; ci < configs; ++ci) {
    bench::subheading(kConfigs[ci].label);
    for (std::size_t k = 0; k < kinds; ++k) {
      std::printf("  %s\n", to_string(kKinds[k]).c_str());
      std::printf("%s\n", results[ci * kinds + k].line.c_str());
    }
  }

  bench::subheading("summary vs paper (Secs. 5.3.3 and 6)");
  for (std::size_t ci = 0; ci < configs; ++ci) {
    const double sif = results[ci * kinds + 0].max_accepted;
    const double sof = results[ci * kinds + 1].max_accepted;
    const double wf = results[ci * kinds + 2].max_accepted;
    std::printf("%-12s saturation: sep_if %.3f, sep_of %.3f, wf %.3f -> wf "
                "gains %+.0f%% over sep_if\n",
                kConfigs[ci].label, sif, sof, wf, 100 * (wf / sif - 1.0));
  }
  std::printf("\npaper: mesh differences negligible (<4%% at 2x1x4); fbfly "
              "wf gains ~4%% at 2x2x1,\n~15%% at 8 VCs and >20%% at 16 VCs; "
              "sep_if and sep_of virtually identical.\n");
  return 0;
}
