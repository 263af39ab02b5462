// Shared glue between the figure benches and run_warm_curves
// (sweep/sim_batch), the one cached simulation entry point: running one of
// the paper's figures, as sweep/paper_figures defines it, and the standard
// "rate:latency ... SAT" row format the figure benches print. Each bench
// keeps only its headings, rows and paper-comparison summary.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "sweep/paper_figures.hpp"
#include "sweep/sim_batch.hpp"

namespace nocalloc::bench {

/// A figure's curves at the bench's fidelity and their results, index for
/// index. Every design point carries the same `series_per_design` curves,
/// consecutively.
struct FigureRun {
  std::vector<sweep::PaperCurve> curves;
  std::vector<sweep::Curve> results;
  std::size_t series_per_design = 0;
};

inline FigureRun run_figure(sweep::PaperFigure figure) {
  FigureRun run;
  run.curves = sweep::paper_figure_curves(figure, fast_mode());
  std::vector<sweep::CurveSpec> specs;
  for (const sweep::PaperCurve& curve : run.curves) {
    specs.push_back(curve.spec);
    if (curve.design == run.curves.front().design) ++run.series_per_design;
  }
  run.results = sweep::run_warm_curves(pool(), specs);
  return run;
}

/// Headline numbers extracted from one latency-vs-load curve.
struct CurveSummary {
  std::string line;           // "    rate: r:lat r:lat ... r:SAT" row
  double max_accepted = 0.0;  // saturation throughput estimate
  double zero_load_latency = 0.0;
};

/// Formats a warm curve the way the figure benches print them. Points past
/// the saturation stop are omitted (they were never run). When
/// sat_with_accepted is true the saturated entry reads SAT(acc=...),
/// otherwise just SAT.
inline CurveSummary summarize_curve(const sweep::Curve& curve,
                                    bool sat_with_accepted) {
  CurveSummary out;
  out.line = "    rate:";
  for (std::size_t p = 0; p < curve.points.size(); ++p) {
    const sweep::CurvePoint& point = curve.points[p];
    if (!point.run) break;
    out.max_accepted =
        std::max(out.max_accepted, point.result.accepted_flit_rate);
    if (p == 0) out.zero_load_latency = point.result.avg_packet_latency;
    if (point.result.saturated) {
      out.line += sat_with_accepted
                      ? strprintf(" %.2f:SAT(acc=%.2f)", point.rate,
                                  point.result.accepted_flit_rate)
                      : strprintf(" %.2f:SAT", point.rate);
      break;
    }
    out.line +=
        strprintf(" %.2f:%.1f", point.rate, point.result.avg_packet_latency);
  }
  return out;
}

}  // namespace nocalloc::bench
