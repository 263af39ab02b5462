// The paper's figure definitions (sweep/paper_figures): pinned specs, and
// the fast figures run under the invariant checker.
//
// The checker observes the schedule an unchecked run takes, so a checked
// figure run must give the same points as the unchecked one; it also
// audits the skip-and-replay schedule on exactly the paper's configs.
// (The differential of that schedule against running every stage is the
// reference path, in test_sim_equivalence.)
#include <gtest/gtest.h>

#include <cstring>

#include "sweep/paper_figures.hpp"
#include "sweep/snapshot_io.hpp"
#include "sim_result_eq.hpp"

namespace nocalloc::sweep {
namespace {

/// FNV-1a over each curve's canonical config bytes, the bits of every
/// rate, its fork warmup and its stop_at_saturation flag.
std::uint64_t spec_hash(const std::vector<PaperCurve>& curves) {
  std::vector<std::uint8_t> bytes;
  auto u64 = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  };
  for (const PaperCurve& curve : curves) {
    canonical_config_bytes(curve.spec.base, bytes);
    for (double r : curve.spec.rates) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &r, sizeof(bits));
      u64(bits);
    }
    u64(curve.spec.fork_warmup_cycles);
    bytes.push_back(curve.spec.stop_at_saturation ? 1 : 0);
  }
  return fnv1a(bytes.data(), bytes.size());
}

// The constants were recorded from the figure benches' own spec-building
// code before it moved here, so the committed figure outputs, the sweep
// cache keys and the benchmark's fig13 job (whose seed-1 specs hash to the
// fast fig13 constant) still describe these curves.
TEST(PaperFigures, SpecsArePinned) {
  struct Pin {
    PaperFigure figure;
    bool fast;
    std::size_t curves;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {PaperFigure::kFig13, true, 18, 0xa8dfaa1ef3ed08c0ull},
      {PaperFigure::kFig14, true, 18, 0xdc9c585657129d3cull},
      {PaperFigure::kVcInsensitivity, true, 6, 0xb231e9689d9201b7ull},
      {PaperFigure::kBufferDepth, true, 10, 0xff305dbd032ffc89ull},
      {PaperFigure::kFig13, false, 18, 0xd760dc476f26ea30ull},
      {PaperFigure::kFig14, false, 18, 0x3017bc5b3167da88ull},
      {PaperFigure::kVcInsensitivity, false, 6, 0x383696b7f9a8f66bull},
      {PaperFigure::kBufferDepth, false, 10, 0x174071f86adb1a09ull},
  };
  for (const Pin& pin : pins) {
    const std::vector<PaperCurve> curves =
        paper_figure_curves(pin.figure, pin.fast);
    SCOPED_TRACE(::testing::Message()
                 << "figure " << static_cast<int>(pin.figure)
                 << (pin.fast ? " fast" : " full"));
    EXPECT_EQ(curves.size(), pin.curves);
    EXPECT_EQ(spec_hash(curves), pin.hash);
  }
}

TEST(PaperFigures, CheckedRunMatchesUnchecked) {
  std::vector<CurveSpec> unchecked;
  for (PaperFigure figure : {PaperFigure::kFig13, PaperFigure::kFig14,
                             PaperFigure::kVcInsensitivity}) {
    for (PaperCurve& curve : paper_figure_curves(figure, /*fast=*/true)) {
      unchecked.push_back(std::move(curve.spec));
    }
  }
  std::vector<CurveSpec> checked = unchecked;
  for (CurveSpec& spec : checked) spec.base.check_invariants = true;

  ThreadPool pool;
  const std::vector<Curve> want = run_warm_curves(pool, unchecked);
  const std::vector<Curve> got = run_warm_curves(pool, checked);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    ASSERT_EQ(got[c].points.size(), want[c].points.size());
    for (std::size_t p = 0; p < got[c].points.size(); ++p) {
      SCOPED_TRACE(::testing::Message() << "curve " << c << " point " << p);
      EXPECT_EQ(got[c].points[p].run, want[c].points[p].run);
      expect_identical(got[c].points[p].result, want[c].points[p].result);
    }
  }
}

}  // namespace
}  // namespace nocalloc::sweep
