#include <gtest/gtest.h>

#include "hw/analysis.hpp"
#include "hw/arbiter_gen.hpp"
#include "hw/sa_gen.hpp"
#include "hw/synthesis.hpp"
#include "hw/vc_alloc_gen.hpp"
#include "hw/wavefront_gen.hpp"

namespace nocalloc::hw {
namespace {

ProcessParams unlimited() {
  ProcessParams p;
  p.synthesis_node_limit = ~0ull >> 1;
  return p;
}

// ---------------------------------------------------------------------------
// Arbiter circuits.

TEST(ArbiterGen, RoundRobinProducesGrantPerInput) {
  Netlist nl;
  auto req = nl.inputs(8);
  const ArbiterCircuit arb =
      gen_round_robin_arbiter(nl, req, nl.input());
  EXPECT_EQ(arb.gnt.size(), 8u);
  EXPECT_NE(arb.any_gnt, kNoNode);
}

TEST(ArbiterGen, SingleInputArbiterIsFree) {
  Netlist nl;
  auto req = nl.inputs(1);
  const std::size_t before = nl.size();
  const ArbiterCircuit rr = gen_round_robin_arbiter(nl, req, req[0]);
  EXPECT_EQ(nl.size(), before);  // degenerate: wire-through
  EXPECT_EQ(rr.gnt[0], req[0]);
}

TEST(ArbiterGen, MatrixAreaGrowsQuadratically) {
  auto nodes_of = [](std::size_t width) {
    Netlist nl;
    auto req = nl.inputs(width);
    gen_matrix_arbiter(nl, req, nl.input());
    return nl.size();
  };
  const std::size_t n8 = nodes_of(8);
  const std::size_t n16 = nodes_of(16);
  const std::size_t n32 = nodes_of(32);
  // Quadratic: doubling width should roughly quadruple gate count.
  EXPECT_GT(n16, 3 * n8);
  EXPECT_GT(n32, 3 * n16);
  EXPECT_LT(n32, 6 * n16);
}

TEST(ArbiterGen, RoundRobinCheaperThanMatrixAtLargeWidths) {
  for (std::size_t width : {8u, 16u, 32u}) {
    Netlist rr_nl, m_nl;
    auto rr_req = rr_nl.inputs(width);
    auto m_req = m_nl.inputs(width);
    gen_round_robin_arbiter(rr_nl, rr_req, rr_nl.input());
    gen_matrix_arbiter(m_nl, m_req, m_nl.input());
    EXPECT_LT(rr_nl.size(), m_nl.size()) << "width " << width;
  }
}

TEST(ArbiterGen, MatrixFasterThanRoundRobin) {
  // The matrix arbiter's flat AND structure beats the round-robin's
  // dual-priority-encoder path -- the delay edge that motivates the /m
  // variants despite their cost (Sec. 4.3.1).
  for (std::size_t width : {8u, 16u}) {
    Netlist rr_nl, m_nl;
    auto rr_req = rr_nl.inputs(width);
    auto m_req = m_nl.inputs(width);
    const ArbiterCircuit rr = gen_round_robin_arbiter(rr_nl, rr_req, rr_nl.input());
    const ArbiterCircuit m = gen_matrix_arbiter(m_nl, m_req, m_nl.input());
    for (NodeId g : rr.gnt) rr_nl.mark_output(g);
    for (NodeId g : m.gnt) m_nl.mark_output(g);
    const double rr_delay = analyze(rr_nl, unlimited()).delay_ns;
    const double m_delay = analyze(m_nl, unlimited()).delay_ns;
    EXPECT_LT(m_delay, rr_delay) << "width " << width;
  }
}

TEST(ArbiterGen, TreeCircuitShallowerThanFlatAtLargeWidths) {
  // P V-input arbiters + P-input arbiter vs one PxV-input arbiter
  // (Sec. 4.1's delay optimization for the output stage).
  Netlist flat_nl, tree_nl;
  auto flat_req = flat_nl.inputs(40);
  auto tree_req = tree_nl.inputs(40);
  const ArbiterCircuit flat =
      gen_round_robin_arbiter(flat_nl, flat_req, flat_nl.input());
  const ArbiterCircuit tree = gen_tree_arbiter(
      tree_nl, ArbiterKind::kRoundRobin, tree_req, 5, tree_nl.input());
  for (NodeId g : flat.gnt) flat_nl.mark_output(g);
  for (NodeId g : tree.gnt) tree_nl.mark_output(g);
  EXPECT_LT(analyze(tree_nl, unlimited()).delay_ns,
            analyze(flat_nl, unlimited()).delay_ns);
}

TEST(PriorityEncoderGen, StructureMatchesWidth) {
  Netlist nl;
  auto in = nl.inputs(6);
  auto out = gen_priority_encoder(nl, in);
  EXPECT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], in[0]);  // highest priority passes through
}

// ---------------------------------------------------------------------------
// Wavefront block.

TEST(WavefrontGen, CubicNodeGrowth) {
  auto nodes_of = [](std::size_t n) {
    Netlist nl;
    std::vector<std::vector<NodeId>> req(n, std::vector<NodeId>(n));
    for (auto& row : req) {
      for (auto& r : row) r = nl.input();
    }
    gen_wavefront(nl, req);
    return nl.size();
  };
  const std::size_t n5 = nodes_of(5);
  const std::size_t n10 = nodes_of(10);
  const std::size_t n20 = nodes_of(20);
  // Cubic: doubling N should give ~8x nodes.
  EXPECT_GT(n10, 5 * n5);
  EXPECT_GT(n20, 5 * n10);
}

TEST(WavefrontGen, TrimmedTilesCostNothing) {
  Netlist full_nl, sparse_nl;
  constexpr std::size_t n = 8;
  std::vector<std::vector<NodeId>> full(n, std::vector<NodeId>(n));
  std::vector<std::vector<NodeId>> half(n, std::vector<NodeId>(n, kNoNode));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      full[i][j] = full_nl.input();
      if ((i + j) % 2 == 0) half[i][j] = sparse_nl.input();
    }
  }
  gen_wavefront(full_nl, full);
  gen_wavefront(sparse_nl, half);
  EXPECT_LT(sparse_nl.size(), (full_nl.size() * 3) / 4);
}

TEST(WavefrontGen, LinearDelayGrowth) {
  auto delay_of = [](std::size_t n) {
    Netlist nl;
    std::vector<std::vector<NodeId>> req(n, std::vector<NodeId>(n));
    for (auto& row : req) {
      for (auto& r : row) r = nl.input();
    }
    WavefrontCircuit wf = gen_wavefront(nl, req);
    for (auto& row : wf.gnt) {
      for (NodeId g : row) nl.mark_output(g);
    }
    return analyze(nl, unlimited()).delay_ns;
  };
  const double d5 = delay_of(5);
  const double d10 = delay_of(10);
  const double d20 = delay_of(20);
  // Approximately linear in N: the ratio of increments stays near 2.
  EXPECT_GT(d10, d5);
  EXPECT_NEAR((d20 - d10) / (d10 - d5), 2.0, 0.8);
}

// ---------------------------------------------------------------------------
// VC allocator design points (Sec. 4.3.1).

VcAllocGenConfig vc_cfg(std::size_t ports, VcPartition part,
                        AllocatorKind kind, ArbiterKind arb, bool sparse) {
  VcAllocGenConfig cfg;
  cfg.ports = ports;
  cfg.partition = part;
  cfg.kind = kind;
  cfg.arb = arb;
  cfg.sparse = sparse;
  return cfg;
}

TEST(VcAllocGen, SparseReducesAllCostMetrics) {
  // The headline claim of Sec. 4.2/4.3.1, checked for every architecture on
  // a mid-size design point.
  const VcPartition part = VcPartition::mesh(2, 2);
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
    const auto dense = synthesize_vc_allocator(
        vc_cfg(5, part, kind, ArbiterKind::kRoundRobin, false), unlimited());
    const auto sparse = synthesize_vc_allocator(
        vc_cfg(5, part, kind, ArbiterKind::kRoundRobin, true), unlimited());
    ASSERT_TRUE(dense.ok && sparse.ok);
    EXPECT_LT(sparse.delay_ns, dense.delay_ns) << to_string(kind);
    EXPECT_LT(sparse.area_um2, dense.area_um2) << to_string(kind);
    EXPECT_LT(sparse.power_mw, dense.power_mw) << to_string(kind);
  }
}

TEST(VcAllocGen, WavefrontBlowsUpWithVcCount) {
  const auto small = synthesize_vc_allocator(
      vc_cfg(5, VcPartition::mesh(2, 1), AllocatorKind::kWavefront,
             ArbiterKind::kRoundRobin, true),
      unlimited());
  const auto large = synthesize_vc_allocator(
      vc_cfg(5, VcPartition::mesh(2, 4), AllocatorKind::kWavefront,
             ArbiterKind::kRoundRobin, true),
      unlimited());
  ASSERT_TRUE(small.ok && large.ok);
  EXPECT_GT(large.area_um2, 20.0 * small.area_um2);
  EXPECT_GT(large.delay_ns, 1.5 * small.delay_ns);
}

TEST(VcAllocGen, SeparableScalesFarMoreGently) {
  const auto small = synthesize_vc_allocator(
      vc_cfg(5, VcPartition::mesh(2, 1), AllocatorKind::kSeparableInputFirst,
             ArbiterKind::kRoundRobin, true),
      unlimited());
  const auto large = synthesize_vc_allocator(
      vc_cfg(5, VcPartition::mesh(2, 4), AllocatorKind::kSeparableInputFirst,
             ArbiterKind::kRoundRobin, true),
      unlimited());
  ASSERT_TRUE(small.ok && large.ok);
  EXPECT_LT(large.area_um2, 40.0 * small.area_um2);
  EXPECT_LT(large.delay_ns, 2.5 * small.delay_ns);
}

TEST(VcAllocGen, DefaultLimitFailsLargestWavefronts) {
  // Matches the paper's report that Design Compiler could not synthesize
  // the wavefront allocators for the two larger fbfly configurations.
  for (std::size_t c : {2u, 4u}) {
    const auto r = synthesize_vc_allocator(
        vc_cfg(10, VcPartition::fbfly(2, c), AllocatorKind::kWavefront,
               ArbiterKind::kRoundRobin, true),
        ProcessParams{});
    EXPECT_FALSE(r.ok) << "fbfly 2x2x" << c;
  }
}

TEST(VcAllocGen, LargestFbflyOnlyRoundRobinSeparableSynthesizes) {
  // Sec. 4.3.1: "synthesis could only be successfully completed for the two
  // round-robin-based separable allocator variants."
  const VcPartition part = VcPartition::fbfly(2, 4);
  const auto if_rr = synthesize_vc_allocator(
      vc_cfg(10, part, AllocatorKind::kSeparableInputFirst,
             ArbiterKind::kRoundRobin, true),
      ProcessParams{});
  const auto of_rr = synthesize_vc_allocator(
      vc_cfg(10, part, AllocatorKind::kSeparableOutputFirst,
             ArbiterKind::kRoundRobin, true),
      ProcessParams{});
  const auto if_m = synthesize_vc_allocator(
      vc_cfg(10, part, AllocatorKind::kSeparableInputFirst,
             ArbiterKind::kMatrix, true),
      ProcessParams{});
  EXPECT_TRUE(if_rr.ok);
  EXPECT_TRUE(of_rr.ok);
  EXPECT_FALSE(if_m.ok);
}

TEST(VcAllocGen, AnalysisIsDeterministic) {
  const VcAllocGenConfig cfg = vc_cfg(5, VcPartition::mesh(2, 2),
                                      AllocatorKind::kSeparableInputFirst,
                                      ArbiterKind::kRoundRobin, true);
  const auto a = synthesize_vc_allocator(cfg, unlimited());
  const auto b = synthesize_vc_allocator(cfg, unlimited());
  EXPECT_EQ(a.node_count, b.node_count);
  EXPECT_DOUBLE_EQ(a.delay_ns, b.delay_ns);
  EXPECT_DOUBLE_EQ(a.area_um2, b.area_um2);
  EXPECT_DOUBLE_EQ(a.power_mw, b.power_mw);
}

TEST(VcAllocGen, CostGrowsMonotonicallyWithRadix) {
  // More ports -> more arbiters, wiring and load at every stage.
  const VcPartition part = VcPartition::mesh(2, 2);
  double prev_area = 0.0;
  for (std::size_t ports : {3u, 5u, 8u}) {
    const auto r = synthesize_vc_allocator(
        vc_cfg(ports, part, AllocatorKind::kSeparableInputFirst,
               ArbiterKind::kRoundRobin, true),
        unlimited());
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.area_um2, prev_area);
    prev_area = r.area_um2;
  }
}

TEST(VcAllocGen, BreakdownScopesCoverTheWholeDesign) {
  // Every cell belongs to a named scope; the paper's optimization targets
  // (wiring + arbiters) must dominate.
  VcAllocGenConfig cfg = vc_cfg(5, VcPartition::mesh(2, 2),
                                AllocatorKind::kSeparableInputFirst,
                                ArbiterKind::kRoundRobin, false);
  Netlist nl;
  gen_vc_allocator(nl, cfg);
  double total = 0.0;
  bool saw_output_arbiters = false;
  for (const ScopeCost& s : area_breakdown(nl)) {
    EXPECT_NE(s.scope, "top") << "unattributed cells";
    total += s.area_um2;
    saw_output_arbiters = saw_output_arbiters || s.scope == "output-arbiters";
  }
  EXPECT_TRUE(saw_output_arbiters);
  // The breakdown counts instantiated cells; analyze() adds inferred fanout
  // buffers on top, so it brackets the total from above.
  const double analyzed = analyze(nl, unlimited()).area_um2;
  EXPECT_LE(total, analyzed);
  EXPECT_GT(total, 0.75 * analyzed);
}

// ---------------------------------------------------------------------------
// Switch allocator design points (Sec. 5.3.1).

SaGenConfig sa_cfg(std::size_t ports, std::size_t vcs, AllocatorKind kind,
                   SpecMode spec) {
  SaGenConfig cfg;
  cfg.ports = ports;
  cfg.vcs = vcs;
  cfg.kind = kind;
  cfg.arb = ArbiterKind::kRoundRobin;
  cfg.spec = spec;
  return cfg;
}

TEST(SaGen, SpeculationRoughlyDoublesArea) {
  const auto nonspec = synthesize_switch_allocator(
      sa_cfg(5, 4, AllocatorKind::kSeparableInputFirst,
             SpecMode::kNonSpeculative),
      unlimited());
  const auto spec = synthesize_switch_allocator(
      sa_cfg(5, 4, AllocatorKind::kSeparableInputFirst,
             SpecMode::kPessimistic),
      unlimited());
  ASSERT_TRUE(nonspec.ok && spec.ok);
  EXPECT_GT(spec.area_um2, 1.8 * nonspec.area_um2);
  EXPECT_LT(spec.area_um2, 3.0 * nonspec.area_um2);
}

TEST(SaGen, PessimisticDelayBetweenNonspecAndConventional) {
  // The core claim of Sec. 5.2: nonspec <= spec_req <= spec_gnt in delay,
  // with spec_req close to nonspec.
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
    const auto nonspec = synthesize_switch_allocator(
        sa_cfg(10, 8, kind, SpecMode::kNonSpeculative), unlimited());
    const auto pess = synthesize_switch_allocator(
        sa_cfg(10, 8, kind, SpecMode::kPessimistic), unlimited());
    const auto conv = synthesize_switch_allocator(
        sa_cfg(10, 8, kind, SpecMode::kConservative), unlimited());
    ASSERT_TRUE(nonspec.ok && pess.ok && conv.ok);
    EXPECT_LE(nonspec.delay_ns, pess.delay_ns + 1e-9) << to_string(kind);
    EXPECT_LE(pess.delay_ns, conv.delay_ns + 1e-9) << to_string(kind);
  }
}

TEST(SaGen, ConventionalMaskExtendsCriticalPathSomewhere) {
  // At least for the separable allocators the grant-based mask must show up
  // as real extra delay over the pessimistic scheme.
  const auto pess = synthesize_switch_allocator(
      sa_cfg(5, 2, AllocatorKind::kSeparableInputFirst,
             SpecMode::kPessimistic),
      unlimited());
  const auto conv = synthesize_switch_allocator(
      sa_cfg(5, 2, AllocatorKind::kSeparableInputFirst,
             SpecMode::kConservative),
      unlimited());
  EXPECT_GT(conv.delay_ns, pess.delay_ns);
}

TEST(SaGen, SeparableInputFirstCheapestInArea) {
  for (std::size_t ports : {5u, 10u}) {
    const auto sif = synthesize_switch_allocator(
        sa_cfg(ports, 4, AllocatorKind::kSeparableInputFirst,
               SpecMode::kNonSpeculative),
        unlimited());
    const auto sof = synthesize_switch_allocator(
        sa_cfg(ports, 4, AllocatorKind::kSeparableOutputFirst,
               SpecMode::kNonSpeculative),
        unlimited());
    const auto wf = synthesize_switch_allocator(
        sa_cfg(ports, 4, AllocatorKind::kWavefront,
               SpecMode::kNonSpeculative),
        unlimited());
    EXPECT_LT(sif.area_um2, sof.area_um2);
    EXPECT_LT(sif.area_um2, wf.area_um2);
  }
}

TEST(SaGen, AllPaperDesignPointsSynthesize) {
  // Unlike the big VC allocators, every switch allocator configuration in
  // Figs. 10/11 fits comfortably under the synthesis limit.
  for (std::size_t ports : {5u, 10u}) {
    for (std::size_t vcs : {2u, 4u, 8u, 16u}) {
      if (ports == 5 && vcs == 16) continue;  // not a paper design point
      for (AllocatorKind kind :
           {AllocatorKind::kSeparableInputFirst,
            AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
        const auto r = synthesize_switch_allocator(
            sa_cfg(ports, vcs, kind, SpecMode::kConservative),
            ProcessParams{});
        EXPECT_TRUE(r.ok) << to_string(kind) << " P" << ports << " V" << vcs;
      }
    }
  }
}

}  // namespace
}  // namespace nocalloc::hw
