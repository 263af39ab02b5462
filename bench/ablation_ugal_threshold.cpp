// Ablation: sensitivity of the flattened butterfly's performance to the
// UGAL minimal-path bias threshold. The paper (via [18]) uses UGAL's
// queue-times-hops comparison; the threshold suppresses misroutes caused by
// transient queue noise. This sweep shows why the default bias is needed:
// with no bias, low-load latency rises (needless Valiant detours); with too
// much, the saturation benefit of adaptivity erodes under adversarial load.
//
// Every (pattern, threshold, rate) simulation is an independent one-rate
// curve with no fork warmup on the sweep pool (sweep::run_warm_curves),
// which equals a cold run_simulation() bit for bit and is cached like
// every other curve point.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "noc/sim.hpp"
#include "sweep/sim_batch.hpp"

using namespace nocalloc;
using namespace nocalloc::noc;

namespace {

constexpr TrafficPattern kPatterns[] = {TrafficPattern::kUniform,
                                        TrafficPattern::kTornado};
constexpr std::size_t kThresholds[] = {0, 1, 3, 8, 32};
constexpr double kRates[] = {0.1, 0.3, 0.5};

SimConfig make_config(TrafficPattern pattern, std::size_t threshold,
                      double rate) {
  const bool fast = bench::fast_mode();
  SimConfig cfg;
  cfg.topology = TopologyKind::kFbfly4x4;
  cfg.vcs_per_class = 2;
  cfg.ugal_threshold = threshold;
  cfg.pattern = pattern;
  cfg.injection_rate = rate;
  cfg.warmup_cycles = fast ? 600 : 2000;
  cfg.measure_cycles = fast ? 1200 : 4000;
  cfg.drain_cycles = fast ? 1200 : 4000;
  return cfg;
}

std::string format_row(std::size_t threshold, double rate,
                       const SimResult& r) {
  return bench::strprintf("  %-10zu %-6.2f %-12.1f %-12.3f %-10.1f%s\n",
                          threshold, rate, r.avg_packet_latency,
                          r.accepted_flit_rate,
                          100 * r.ugal_nonminimal_fraction,
                          r.saturated ? "  (saturated)" : "");
}

}  // namespace

int main() {
  bench::heading("Ablation: UGAL minimal-path bias threshold (fbfly 2x2x2)");

  const std::size_t thresholds = std::size(kThresholds);
  const std::size_t rates = std::size(kRates);
  const std::size_t per_pattern = thresholds * rates;
  const std::size_t total = std::size(kPatterns) * per_pattern;

  std::vector<sweep::CurveSpec> specs;
  for (std::size_t t = 0; t < total; ++t) {
    const std::size_t rest = t % per_pattern;
    sweep::CurveSpec spec;
    spec.base = make_config(kPatterns[t / per_pattern],
                            kThresholds[rest / rates], kRates[rest % rates]);
    spec.rates = {spec.base.injection_rate};
    spec.fork_warmup_cycles = 0;
    spec.stop_at_saturation = false;
    specs.push_back(spec);
  }
  const auto results = sweep::run_warm_curves(bench::pool(), specs);

  std::vector<std::string> rows(total);
  for (std::size_t t = 0; t < total; ++t) {
    const std::size_t rest = t % per_pattern;
    rows[t] = format_row(kThresholds[rest / rates], kRates[rest % rates],
                         results[t].points[0].result);
  }

  const char* sections[] = {
      "uniform random traffic (benign: minimal is optimal)",
      "tornado traffic (adversarial: misrouting pays off)"};
  for (std::size_t p = 0; p < std::size(kPatterns); ++p) {
    bench::subheading(sections[p]);
    std::printf("  %-10s %-6s %-12s %-12s %-10s\n", "threshold", "rate",
                "latency", "accepted", "misroute%");
    for (std::size_t i = 0; i < per_pattern; ++i)
      std::printf("%s", rows[p * per_pattern + i].c_str());
  }

  bench::subheading("interpretation");
  std::printf(
      "under uniform traffic minimal routing is optimal, so large\n"
      "thresholds (fewer misroutes) win slightly; under tornado traffic\n"
      "minimal routing concentrates load and adaptive misrouting is what\n"
      "sustains throughput -- exactly the trade UGAL's threshold tunes.\n");
  return 0;
}
