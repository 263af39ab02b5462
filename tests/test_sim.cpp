// End-to-end tests of the simulation driver on shortened runs.
#include "noc/sim.hpp"

#include <gtest/gtest.h>

#include "sim_result_eq.hpp"

namespace nocalloc::noc {
namespace {

SimConfig quick(TopologyKind topo, double rate) {
  SimConfig cfg;
  cfg.topology = topo;
  cfg.vcs_per_class = 1;
  cfg.injection_rate = rate;
  cfg.warmup_cycles = 800;
  cfg.measure_cycles = 1500;
  cfg.drain_cycles = 1500;
  return cfg;
}

TEST(PartitionFor, MatchesPaperDesignPoints) {
  const VcPartition mesh = partition_for(TopologyKind::kMesh8x8, 4);
  EXPECT_EQ(mesh.message_classes(), 2u);
  EXPECT_EQ(mesh.resource_classes(), 1u);
  EXPECT_EQ(mesh.total_vcs(), 8u);
  const VcPartition fbfly = partition_for(TopologyKind::kFbfly4x4, 4);
  EXPECT_EQ(fbfly.resource_classes(), 2u);
  EXPECT_EQ(fbfly.total_vcs(), 16u);
}

// A zero-cycle window would make the accepted rate 0 / 0; configs built in
// code are rejected as the parser rejects measure_cycles = 0.
TEST(Simulation, RejectsEmptyMeasureWindow) {
  SimConfig cfg = quick(TopologyKind::kMesh8x8, 0.1);
  cfg.measure_cycles = 0;
  EXPECT_DEATH(SimInstance{cfg}, "config key 'measure_cycles' must be >= 1");
}

TEST(Simulation, MeshZeroLoadLatencyInPlausibleBand) {
  // ~5.25 network hops x 3 cycles/hop + injection/ejection + serialization:
  // roughly 20 cycles (Fig. 13a's intercept).
  const SimResult r = run_simulation(quick(TopologyKind::kMesh8x8, 0.02));
  EXPECT_GT(r.packets_measured, 100u);
  EXPECT_GT(r.avg_packet_latency, 14.0);
  EXPECT_LT(r.avg_packet_latency, 32.0);
  EXPECT_FALSE(r.saturated);
}

TEST(Simulation, FbflyZeroLoadLatencyLowerThanMesh) {
  // The fbfly's diameter of 2 gives markedly lower zero-load latency.
  const SimResult mesh = run_simulation(quick(TopologyKind::kMesh8x8, 0.02));
  const SimResult fbfly = run_simulation(quick(TopologyKind::kFbfly4x4, 0.02));
  EXPECT_LT(fbfly.avg_packet_latency, mesh.avg_packet_latency);
}

TEST(Simulation, AcceptedMatchesOfferedBelowSaturation) {
  const SimResult r = run_simulation(quick(TopologyKind::kMesh8x8, 0.15));
  EXPECT_NEAR(r.accepted_flit_rate, 0.15, 0.015);
  EXPECT_FALSE(r.saturated);
}

TEST(Simulation, SaturatesAtExcessiveLoad) {
  const SimResult r = run_simulation(quick(TopologyKind::kMesh8x8, 0.9));
  EXPECT_TRUE(r.saturated);
  EXPECT_LT(r.accepted_flit_rate, 0.6);
  // Latency blows up past saturation.
  EXPECT_GT(r.avg_packet_latency, 60.0);
}

TEST(Simulation, LatencyIncreasesWithLoad) {
  const SimResult low = run_simulation(quick(TopologyKind::kMesh8x8, 0.05));
  const SimResult high = run_simulation(quick(TopologyKind::kMesh8x8, 0.28));
  EXPECT_GT(high.avg_packet_latency, low.avg_packet_latency);
}

TEST(Simulation, SpeculationReducesZeroLoadLatency) {
  // Sec. 5.3.3: up to ~23% on the mesh. Expect a clearly measurable gap.
  SimConfig spec = quick(TopologyKind::kMesh8x8, 0.02);
  SimConfig nonspec = spec;
  nonspec.spec = SpecMode::kNonSpeculative;
  const double lat_spec = run_simulation(spec).avg_packet_latency;
  const double lat_nonspec = run_simulation(nonspec).avg_packet_latency;
  EXPECT_LT(lat_spec, 0.92 * lat_nonspec);
}

TEST(Simulation, PessimisticMatchesConventionalAtLowLoad) {
  SimConfig pess = quick(TopologyKind::kMesh8x8, 0.05);
  SimConfig conv = pess;
  conv.spec = SpecMode::kConservative;
  const double lat_pess = run_simulation(pess).avg_packet_latency;
  const double lat_conv = run_simulation(conv).avg_packet_latency;
  EXPECT_NEAR(lat_pess, lat_conv, 0.06 * lat_conv);
}

TEST(Simulation, DeterministicForSameSeed) {
  const SimResult a = run_simulation(quick(TopologyKind::kMesh8x8, 0.1));
  const SimResult b = run_simulation(quick(TopologyKind::kMesh8x8, 0.1));
  expect_identical(a, b);
}

TEST(Simulation, SeedChangesResults) {
  SimConfig cfg = quick(TopologyKind::kMesh8x8, 0.1);
  const SimResult a = run_simulation(cfg);
  cfg.seed = 2;
  const SimResult b = run_simulation(cfg);
  EXPECT_NE(a.packets_measured, b.packets_measured);
}

TEST(Simulation, NetworkLatencyBelowPacketLatency) {
  // Packet latency includes source queueing; network latency starts at
  // head injection.
  const SimResult r = run_simulation(quick(TopologyKind::kMesh8x8, 0.2));
  EXPECT_LE(r.avg_network_latency, r.avg_packet_latency);
  EXPECT_LE(r.avg_packet_latency, r.p99_packet_latency);
}

TEST(Simulation, SpeculationCountersOnlyWithSpeculativeModes) {
  SimConfig cfg = quick(TopologyKind::kMesh8x8, 0.1);
  cfg.spec = SpecMode::kNonSpeculative;
  const SimResult r = run_simulation(cfg);
  EXPECT_EQ(r.spec_grants_used, 0u);
  EXPECT_EQ(r.misspeculations, 0u);

  cfg.spec = SpecMode::kPessimistic;
  const SimResult s = run_simulation(cfg);
  EXPECT_GT(s.spec_grants_used, 0u);
}

TEST(Simulation, WavefrontSaNeverWorseThanSepIfOnFbfly) {
  SimConfig cfg = quick(TopologyKind::kFbfly4x4, 0.4);
  cfg.vcs_per_class = 2;
  cfg.sw_alloc = AllocatorKind::kSeparableInputFirst;
  const SimResult sep = run_simulation(cfg);
  cfg.sw_alloc = AllocatorKind::kWavefront;
  const SimResult wf = run_simulation(cfg);
  EXPECT_LE(wf.avg_packet_latency, 1.1 * sep.avg_packet_latency);
}

TEST(Simulation, OtherTrafficPatternsRun) {
  for (TrafficPattern p :
       {TrafficPattern::kBitComplement, TrafficPattern::kTranspose,
        TrafficPattern::kShuffle}) {
    SimConfig cfg = quick(TopologyKind::kMesh8x8, 0.05);
    cfg.pattern = p;
    const SimResult r = run_simulation(cfg);
    EXPECT_GT(r.packets_measured, 50u) << to_string(p);
  }
}

TEST(TopologyKindNames, MatchPaperLabels) {
  EXPECT_EQ(to_string(TopologyKind::kMesh8x8), "mesh");
  EXPECT_EQ(to_string(TopologyKind::kFbfly4x4), "fbfly");
}

}  // namespace
}  // namespace nocalloc::noc
