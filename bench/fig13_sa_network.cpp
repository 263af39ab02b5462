// Figure 13: average packet latency vs injection rate for the three switch
// allocator architectures across the six network design points (Sec. 5.3.3).
// Also prints the paper's conclusion-level numbers: the wavefront vs
// separable-input-first saturation gap on the flattened butterfly.
//
// The curves (one per design point and allocator kind) are defined in
// sweep/paper_figures; this program formats them. Each is one warm-fork
// CurveSpec: the design point is warmed once at the lowest rate, and every
// load point forks from that snapshot instead of paying a cold warmup.
// Simulations are pure functions of their SimConfig, so the parallel run
// reproduces the serial output byte for byte.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "bench/curve_util.hpp"

using namespace nocalloc;

int main() {
  bench::heading("Figure 13: network latency vs injection rate per switch "
                 "allocator");
  std::printf("(entries are rate:avg-latency-in-cycles; SAT marks the "
              "saturation point)\n");

  const bench::FigureRun run = bench::run_figure(sweep::PaperFigure::kFig13);
  const std::size_t kinds = run.series_per_design;

  std::vector<bench::CurveSummary> results(run.results.size());
  for (std::size_t t = 0; t < run.results.size(); ++t) {
    results[t] =
        bench::summarize_curve(run.results[t], /*sat_with_accepted=*/true);
  }

  for (std::size_t d = 0; d < results.size(); d += kinds) {
    bench::subheading(run.curves[d].design);
    for (std::size_t t = d; t < d + kinds; ++t) {
      std::printf("  %s\n", run.curves[t].series.c_str());
      std::printf("%s\n", results[t].line.c_str());
    }
  }

  // Series order: sep_if, sep_of, wf.
  bench::subheading("summary vs paper (Secs. 5.3.3 and 6)");
  for (std::size_t d = 0; d < results.size(); d += kinds) {
    const double sif = results[d + 0].max_accepted;
    const double sof = results[d + 1].max_accepted;
    const double wf = results[d + 2].max_accepted;
    std::printf("%-12s saturation: sep_if %.3f, sep_of %.3f, wf %.3f -> wf "
                "gains %+.0f%% over sep_if\n",
                run.curves[d].design, sif, sof, wf, 100 * (wf / sif - 1.0));
  }
  std::printf("\npaper: mesh differences negligible (<4%% at 2x1x4); fbfly "
              "wf gains ~4%% at 2x2x1,\n~15%% at 8 VCs and >20%% at 16 VCs; "
              "sep_if and sep_of virtually identical.\n");
  return 0;
}
