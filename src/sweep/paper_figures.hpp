// The paper's network experiments as data.
//
// Every network result in the paper runs over the same six design points
// (Sec. 3): the 8x8 mesh (M=2 x R=1 x C) and the 4x4 flattened butterfly
// (M=2 x R=2 x C), each with C = 1, 2 and 4 VCs per class. Figs. 13 and 14
// (Sec. 5.3.3), the Sec. 4.3.3 VC-insensitivity claim and the buffer-depth
// ablation are latency-vs-load curves over them. This module defines the
// table and those curve lists once; the figure benches only format and
// summarize the curves, and tests build the same specs to run them under
// the invariant checker and to pin them.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "noc/sim.hpp"
#include "sweep/sim_batch.hpp"

namespace nocalloc::sweep {

/// One of the paper's six design points.
struct PaperDesignPoint {
  const char* label;  // "mesh 2x1x1" ... "fbfly 2x2x4"
  noc::TopologyKind topology;
  std::size_t vcs_per_class;  // C
  double max_rate;            // last offered load of the fig13/fig14 curve
};

/// The six design points: mesh before fbfly, C ascending.
std::span<const PaperDesignPoint> paper_design_points();

/// The paper's latency-vs-load experiments.
enum class PaperFigure {
  kFig13,            // switch allocator kind, all six design points
  kFig14,            // speculation mode, all six design points
  kVcInsensitivity,  // VC allocator kind, mesh 2x1x4 and fbfly 2x2x4
  kBufferDepth,      // buffer depth 2..32, mesh 2x1x1 and fbfly 2x2x2
};

/// One curve of a figure.
struct PaperCurve {
  const char* design;  // label of its paper_design_points() row
  std::string series;  // to_string of the swept kind or mode, or the depth
  CurveSpec spec;
};

/// The figure's curves in print order: design-major, then series, with the
/// same series over every design point. `fast` selects the reduced-fidelity
/// phase lengths of the benches' NOCALLOC_BENCH_FAST=1 mode.
std::vector<PaperCurve> paper_figure_curves(PaperFigure figure, bool fast);

/// Inclusive [lo, hi] grid with the given step, ascending as CurveSpec
/// requires. It accumulates `r += step` on purpose: the committed figure
/// outputs, the sweep-cache keys and the benchmark goldens were all made
/// with those doubles, and an index-based grid (lo + i * step, as
/// tools/nocsweep builds) differs from them in the last bits.
std::vector<double> rate_grid(double lo, double hi, double step);

}  // namespace nocalloc::sweep
