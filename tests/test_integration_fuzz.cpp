// Randomized-configuration integration tests: sample the whole configuration
// space (topology x allocators x arbiters x speculation x VC count x buffer
// depth x pattern) and check the invariants every network must satisfy --
// flit conservation after drain, forward progress, and determinism. This is
// the failure-injection net for interactions no targeted test enumerates.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "noc/config.hpp"
#include "sim_result_eq.hpp"

namespace nocalloc::noc {
namespace {

SimConfig random_config(Rng& rng) {
  SimConfig cfg;
  const TopologyKind topologies[] = {TopologyKind::kMesh8x8,
                                     TopologyKind::kFbfly4x4,
                                     TopologyKind::kRing16,
                                     TopologyKind::kTorus8x8};
  cfg.topology = topologies[rng.next_below(4)];
  const std::size_t cs[] = {1, 2, 4};
  cfg.vcs_per_class = cs[rng.next_below(3)];
  const AllocatorKind kinds[] = {AllocatorKind::kSeparableInputFirst,
                                 AllocatorKind::kSeparableOutputFirst,
                                 AllocatorKind::kWavefront};
  cfg.vc_alloc = kinds[rng.next_below(3)];
  cfg.sw_alloc = kinds[rng.next_below(3)];
  cfg.vc_arb = rng.next_bool(0.5) ? ArbiterKind::kRoundRobin
                                  : ArbiterKind::kMatrix;
  cfg.sw_arb = rng.next_bool(0.5) ? ArbiterKind::kRoundRobin
                                  : ArbiterKind::kMatrix;
  const SpecMode modes[] = {SpecMode::kNonSpeculative, SpecMode::kConservative,
                            SpecMode::kPessimistic};
  cfg.spec = modes[rng.next_below(3)];
  const std::size_t depths[] = {2, 4, 8};
  cfg.buffer_depth = depths[rng.next_below(3)];
  const TrafficPattern patterns[] = {
      TrafficPattern::kUniform, TrafficPattern::kBitComplement,
      TrafficPattern::kTranspose, TrafficPattern::kTornado};
  cfg.pattern = patterns[rng.next_below(4)];
  cfg.injection_rate = 0.02 + rng.next_double() * 0.25;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 600;
  cfg.drain_cycles = 600;
  cfg.seed = rng.next();
  return cfg;
}

TEST(IntegrationFuzz, RandomConfigurationsMakeForwardProgress) {
  Rng rng(20260707);
  for (int trial = 0; trial < 25; ++trial) {
    const SimConfig cfg = random_config(rng);
    const SimResult r = run_simulation(cfg);
    // Whatever the configuration, traffic must flow and statistics must be
    // internally consistent.
    ASSERT_GT(r.packets_measured, 0u) << to_config_string(cfg);
    ASSERT_GT(r.accepted_flit_rate, 0.0) << to_config_string(cfg);
    ASSERT_LE(r.avg_network_latency, r.avg_packet_latency + 1e-9)
        << to_config_string(cfg);
    ASSERT_GT(r.avg_packet_latency, 3.0) << to_config_string(cfg);
    if (cfg.spec == SpecMode::kNonSpeculative) {
      ASSERT_EQ(r.spec_grants_used, 0u) << to_config_string(cfg);
    }
  }
}

TEST(IntegrationFuzz, RandomConfigurationsAreDeterministic) {
  Rng rng(424242);
  for (int trial = 0; trial < 6; ++trial) {
    const SimConfig cfg = random_config(rng);
    const SimResult a = run_simulation(cfg);
    const SimResult b = run_simulation(cfg);
    SCOPED_TRACE(to_config_string(cfg));
    expect_identical(a, b);
  }
}

}  // namespace
}  // namespace nocalloc::noc
