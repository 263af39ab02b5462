// Figure 14: average packet latency vs injection rate for the three
// speculation policies (nonspec, conventional spec_gnt, pessimistic
// spec_req), using a separable input-first switch allocator (Sec. 5.3.3).
//
// The curves (one per design point and speculation mode) are defined in
// sweep/paper_figures; this program formats them. Each is one warm-fork
// CurveSpec on the sweep engine; see fig13 for the determinism argument.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "bench/curve_util.hpp"

using namespace nocalloc;

int main() {
  bench::heading("Figure 14: speculative switch allocation policies");
  std::printf("(separable input-first switch allocator; entries are "
              "rate:latency, SAT = saturated)\n");

  const bench::FigureRun run = bench::run_figure(sweep::PaperFigure::kFig14);
  const std::size_t modes = run.series_per_design;

  std::vector<bench::CurveSummary> results(run.results.size());
  for (std::size_t t = 0; t < run.results.size(); ++t) {
    results[t] =
        bench::summarize_curve(run.results[t], /*sat_with_accepted=*/true);
  }

  for (std::size_t d = 0; d < results.size(); d += modes) {
    bench::subheading(run.curves[d].design);
    for (std::size_t t = d; t < d + modes; ++t) {
      std::printf("  %s\n", run.curves[t].series.c_str());
      std::printf("%s\n", results[t].line.c_str());
    }
  }

  // Series order: nonspec, spec_gnt, spec_req.
  bench::subheading("summary vs paper (Sec. 5.3.3)");
  for (std::size_t d = 0; d < results.size(); d += modes) {
    const bench::CurveSummary& ns = results[d + 0];
    const bench::CurveSummary& sg = results[d + 1];
    const bench::CurveSummary& sr = results[d + 2];
    std::printf(
        "%-12s zero-load: nonspec %5.1f, spec %5.1f (-%4.1f%%)   saturation: "
        "nonspec %.3f, spec_gnt %.3f (+%4.1f%%), spec_req %.3f (%+.1f%% vs "
        "spec_gnt)\n",
        run.curves[d].design, ns.zero_load_latency, sr.zero_load_latency,
        100 * (1.0 - sr.zero_load_latency / ns.zero_load_latency),
        ns.max_accepted, sg.max_accepted,
        100 * (sg.max_accepted / ns.max_accepted - 1.0), sr.max_accepted,
        100 * (sr.max_accepted / sg.max_accepted - 1.0));
  }
  std::printf("\npaper: zero-load improves ~23%% (mesh) / ~14%% (fbfly); "
              "saturation gains 14%% (mesh 2x1x1),\n6%% (fbfly 2x2x1), <5%% "
              "elsewhere; spec_req loses <4%% throughput vs spec_gnt.\n");
  return 0;
}
