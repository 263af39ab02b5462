#include "sweep/paper_figures.hpp"

#include <array>

namespace nocalloc::sweep {

namespace {

using noc::TopologyKind;

constexpr std::array<PaperDesignPoint, 6> kDesignPoints = {{
    {"mesh 2x1x1", TopologyKind::kMesh8x8, 1, 0.45},
    {"mesh 2x1x2", TopologyKind::kMesh8x8, 2, 0.50},
    {"mesh 2x1x4", TopologyKind::kMesh8x8, 4, 0.50},
    {"fbfly 2x2x1", TopologyKind::kFbfly4x4, 1, 0.60},
    {"fbfly 2x2x2", TopologyKind::kFbfly4x4, 2, 0.70},
    {"fbfly 2x2x4", TopologyKind::kFbfly4x4, 4, 0.80},
}};

constexpr AllocatorKind kKinds[] = {AllocatorKind::kSeparableInputFirst,
                                    AllocatorKind::kSeparableOutputFirst,
                                    AllocatorKind::kWavefront};
constexpr SpecMode kModes[] = {SpecMode::kNonSpeculative,
                               SpecMode::kConservative,
                               SpecMode::kPessimistic};
constexpr std::size_t kDepths[] = {2, 4, 8, 16, 32};

/// Cycle counts of every curve in a figure.
struct Phases {
  std::size_t warmup;
  std::size_t measure;
  std::size_t drain;
  std::size_t fork_warmup;
};

Phases phases_of(PaperFigure figure, bool fast) {
  if (fast) return {600, 1200, 1200, 400};
  const bool network_figure =
      figure == PaperFigure::kFig13 || figure == PaperFigure::kFig14;
  const std::size_t window = network_figure ? 5000 : 4000;
  return {2000, window, window, 1000};
}

}  // namespace

std::span<const PaperDesignPoint> paper_design_points() {
  return kDesignPoints;
}

std::vector<PaperCurve> paper_figure_curves(PaperFigure figure, bool fast) {
  const Phases phases = phases_of(figure, fast);
  std::vector<PaperCurve> curves;
  // Appends one curve of `dp` at the figure's phase lengths and returns its
  // base config for the swept field.
  auto add = [&](const PaperDesignPoint& dp, std::string series,
                 std::vector<double> rates) -> noc::SimConfig& {
    PaperCurve& curve =
        curves.emplace_back(PaperCurve{dp.label, std::move(series), {}});
    curve.spec.base.topology = dp.topology;
    curve.spec.base.vcs_per_class = dp.vcs_per_class;
    curve.spec.base.warmup_cycles = phases.warmup;
    curve.spec.base.measure_cycles = phases.measure;
    curve.spec.base.drain_cycles = phases.drain;
    curve.spec.rates = std::move(rates);
    curve.spec.fork_warmup_cycles = phases.fork_warmup;
    return curve.spec.base;
  };

  switch (figure) {
    case PaperFigure::kFig13:
      for (const PaperDesignPoint& dp : kDesignPoints) {
        for (AllocatorKind kind : kKinds) {
          add(dp, to_string(kind), rate_grid(0.05, dp.max_rate, 0.05))
              .sw_alloc = kind;
        }
      }
      break;
    case PaperFigure::kFig14:
      for (const PaperDesignPoint& dp : kDesignPoints) {
        for (SpecMode mode : kModes) {
          add(dp, to_string(mode), rate_grid(0.05, dp.max_rate, 0.05)).spec =
              mode;
        }
      }
      break;
    case PaperFigure::kVcInsensitivity:
      // The most VC-rich points, where differences would be largest.
      for (const PaperDesignPoint& dp : {kDesignPoints[2], kDesignPoints[5]}) {
        for (AllocatorKind kind : kKinds) {
          add(dp, to_string(kind), rate_grid(0.05, dp.max_rate, 0.1))
              .vc_alloc = kind;
        }
      }
      break;
    case PaperFigure::kBufferDepth:
      for (const PaperDesignPoint& dp : {kDesignPoints[0], kDesignPoints[4]}) {
        for (std::size_t depth : kDepths) {
          add(dp, std::to_string(depth), rate_grid(0.05, 0.75, 0.1))
              .buffer_depth = depth;
        }
      }
      break;
  }
  return curves;
}

std::vector<double> rate_grid(double lo, double hi, double step) {
  std::vector<double> rates;
  for (double r = lo; r <= hi + 1e-9; r += step) rates.push_back(r);
  return rates;
}

}  // namespace nocalloc::sweep
