// Protocol static analysis (src/verify): CDG construction pins against the
// shipped topologies, cycle detection on known-deadlocking dateline-disabled
// variants (with full cycle witnesses), pass-level detection of illegal /
// out-of-range / useless class structure, and the static-dynamic
// cross-check: the relation extracted statically arms the runtime
// route-legality check, and the seeded broken torus both fails statically
// and trips the runtime deadlock watchdog on channels the static witness
// names.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "noc/routing.hpp"
#include "noc/sim.hpp"
#include "noc/topology.hpp"
#include "vc/vc_partition.hpp"
#include "verify/verify.hpp"

namespace nocalloc::verify {
namespace {

std::string error_summary(const std::vector<VerifyDiagnostic>& diags) {
  std::string out;
  for (const VerifyDiagnostic& d : diags) {
    if (d.severity == VerifySeverity::kError) out += to_string(d) + "\n";
  }
  return out;
}

const VerifyDiagnostic* find_check(const std::vector<VerifyDiagnostic>& diags,
                                   VerifyCheck check) {
  for (const VerifyDiagnostic& d : diags) {
    if (d.check == check) return &d;
  }
  return nullptr;
}

class ZeroOracle final : public noc::CongestionOracle {
 public:
  std::size_t output_congestion(int, int) const override { return 0; }
};

// ---- CDG construction pins --------------------------------------------------

TEST(VerifyCdg, RingExtractionPins) {
  noc::SimConfig cfg;
  cfg.topology = noc::TopologyKind::kRing16;
  const VerifyReport report = verify_sim_config(cfg);
  const ProtocolExtraction& ex = report.extraction;

  EXPECT_EQ(ex.channels.size(), 64u);  // 16 inject + 32 links + 16 eject
  EXPECT_EQ(ex.num_injection, 16u);
  EXPECT_EQ(ex.num_links, 32u);
  EXPECT_EQ(ex.resource_classes, 2u);
  EXPECT_EQ(ex.num_nodes(), 128u);
  // Oblivious routing: exactly one trace per ordered terminal pair.
  EXPECT_EQ(ex.routes_traced, 16u * 15u);
  EXPECT_TRUE(ex.failures.empty());

  // The observed relation is exactly the dateline chain of Sec. 4.2.
  EXPECT_EQ(ex.observed.count(), 3u);
  EXPECT_TRUE(ex.observed.transition_allowed(0, 0));
  EXPECT_TRUE(ex.observed.transition_allowed(0, 1));
  EXPECT_TRUE(ex.observed.transition_allowed(1, 1));
  EXPECT_FALSE(ex.observed.transition_allowed(1, 0));

  EXPECT_FALSE(has_errors(report.diagnostics))
      << error_summary(report.diagnostics);
  EXPECT_EQ(count_of(report.diagnostics, VerifyCheck::kCdgCycle), 0u);
}

TEST(VerifyCdg, TorusObservedRelationPins) {
  noc::SimConfig cfg;
  cfg.topology = noc::TopologyKind::kTorus8x8;
  const TransitionRelation rel = relation_for_config(cfg);
  ASSERT_EQ(rel.classes(), 4u);
  // Four self-continuations plus 0->1, 0->2, 0->3, 1->2, 1->3, 2->3: every
  // transition the partition allows is actually exercised by some route.
  EXPECT_EQ(rel.count(), 10u);
  const VcPartition partition = noc::partition_for(cfg.topology, 1);
  for (std::size_t from = 0; from < 4; ++from) {
    for (std::size_t to = 0; to < 4; ++to) {
      EXPECT_EQ(rel.transition_allowed(from, to),
                partition.transition_allowed(from, to))
          << from << " -> " << to;
    }
  }
  EXPECT_FALSE(rel.transition_allowed(1, 0));
  EXPECT_FALSE(rel.transition_allowed(3, 2));
}

TEST(VerifyCdg, ShippedConfigsVerifyClean) {
  const std::vector<ProtocolPoint> points = shipped_protocol_points();
  ASSERT_EQ(points.size(), 12u);
  for (const ProtocolPoint& p : points) {
    const VerifyReport report = verify_sim_config(p.cfg);
    EXPECT_FALSE(has_errors(report.diagnostics))
        << p.name << ":\n" << error_summary(report.diagnostics);
    EXPECT_GT(report.extraction.routes_traced, 0u) << p.name;
    EXPECT_TRUE(report.extraction.failures.empty()) << p.name;
  }
}

TEST(VerifyCdg, UgalEnumerationCoversAllDecisions) {
  const noc::FlattenedButterflyTopology topo(4, 4);
  const ZeroOracle oracle;
  noc::UgalFbflyRouting routing(topo, oracle, Rng(1));

  // Corner-to-corner (router 0 to router 15): the minimal path plus every
  // intermediate off the two minimal "corners" (routers 3 and 12).
  std::vector<noc::InjectionCase> cases;
  routing.enumerate_injection_cases(0, /*dst_terminal=*/63, cases);
  ASSERT_EQ(cases.size(), 13u);
  EXPECT_EQ(cases.front().intermediate_router, -1);
  EXPECT_EQ(cases.front().resource_class, 1u);
  for (std::size_t i = 1; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].resource_class, 0u);
    const int inter = cases[i].intermediate_router;
    EXPECT_NE(inter, 0);
    EXPECT_NE(inter, 15);
    EXPECT_NE(inter, 3);   // (3, 0): on a minimal path, degenerate
    EXPECT_NE(inter, 12);  // (0, 3): on a minimal path, degenerate
  }

  // Same-router destination: minimal only (UGAL never misroutes locally).
  cases.clear();
  routing.enumerate_injection_cases(0, /*dst_terminal=*/1, cases);
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases.front().intermediate_router, -1);
  EXPECT_EQ(cases.front().resource_class, 1u);
}

// ---- Cycle detection --------------------------------------------------------

TEST(VerifyCycles, BrokenFourNodeRingYieldsCycleWitness) {
  const noc::RingTopology topo(4);
  noc::DatelineRingRouting routing(topo, /*disable_datelines=*/true);
  const VcPartition partition = VcPartition::dateline(2, 1);
  const VerifyReport report = verify_protocol(topo, routing, partition);

  EXPECT_TRUE(has_errors(report.diagnostics));
  const VerifyDiagnostic* cycle =
      find_check(report.diagnostics, VerifyCheck::kCdgCycle);
  ASSERT_NE(cycle, nullptr) << error_summary(report.diagnostics);

  // The witness is the full clockwise ring: four link channels, all stuck
  // in the pre-dateline class, forming a closed dependency walk.
  const ProtocolExtraction& ex = report.extraction;
  ASSERT_EQ(cycle->nodes.size(), 4u);
  for (std::size_t i = 0; i < cycle->nodes.size(); ++i) {
    const std::size_t node = cycle->nodes[i];
    EXPECT_EQ(ex.class_of_node(node), 0u);
    EXPECT_EQ(ex.channels[ex.channel_of_node(node)].kind, ChannelKind::kLink);
    const std::size_t next = cycle->nodes[(i + 1) % cycle->nodes.size()];
    const std::vector<std::size_t>& succ = ex.cdg_adj[node];
    EXPECT_TRUE(std::binary_search(succ.begin(), succ.end(), next))
        << ex.node_name(node) << " -> " << ex.node_name(next);
  }
}

TEST(VerifyCycles, HealthyFourNodeRingIsCycleFree) {
  const noc::RingTopology topo(4);
  noc::DatelineRingRouting routing(topo);
  const VerifyReport report =
      verify_protocol(topo, routing, VcPartition::dateline(2, 1));
  EXPECT_FALSE(has_errors(report.diagnostics))
      << error_summary(report.diagnostics);
}

TEST(VerifyCycles, BrokenTorusYieldsCycleWitnesses) {
  noc::SimConfig cfg;
  cfg.topology = noc::TopologyKind::kTorus8x8;
  cfg.disable_datelines = true;
  const VerifyReport report = verify_sim_config(cfg);
  EXPECT_TRUE(has_errors(report.diagnostics));
  // Every wrap ring reappears: 2 directions x (8 rows + 8 columns) = 32
  // cycles of 8 links each (the per-check cap truncates the report).
  const VerifyDiagnostic* cycle =
      find_check(report.diagnostics, VerifyCheck::kCdgCycle);
  ASSERT_NE(cycle, nullptr);
  EXPECT_EQ(cycle->nodes.size(), 8u);
}

// ---- Pass library -----------------------------------------------------------

TEST(VerifyPasses, IllegalTransitionFlagged) {
  const noc::RingTopology topo(16);
  noc::DatelineRingRouting routing(topo);
  // Two resource classes but no 0 -> 1 edge: the routing's dateline advance
  // is a transition the router's VC allocator would never grant.
  const VcPartition partition(2, 2, 1);
  const VerifyReport report = verify_protocol(topo, routing, partition);
  EXPECT_TRUE(has_errors(report.diagnostics));
  EXPECT_GE(count_of(report.diagnostics, VerifyCheck::kIllegalTransition), 1u);
}

TEST(VerifyPasses, ClassOutOfRangeFlagged) {
  const noc::RingTopology topo(16);
  noc::DatelineRingRouting routing(topo);
  // A single-resource-class partition cannot hold the post-dateline class.
  const VerifyReport report =
      verify_protocol(topo, routing, VcPartition::mesh(2, 1));
  EXPECT_TRUE(has_errors(report.diagnostics));
  EXPECT_GE(count_of(report.diagnostics, VerifyCheck::kClassOutOfRange), 1u);
}

TEST(VerifyPasses, UselessDatelineFlagged) {
  const noc::MeshTopology topo(4);
  noc::DorMeshRouting routing(topo);
  // A dateline split on a mesh: DOR never leaves class 0, so class 1 buys
  // nothing -- dead VCs, an unexercised transition, and a useless split.
  const VerifyReport report =
      verify_protocol(topo, routing, VcPartition::dateline(2, 1));
  EXPECT_FALSE(has_errors(report.diagnostics))
      << error_summary(report.diagnostics);
  EXPECT_GE(count_of(report.diagnostics, VerifyCheck::kUselessDateline), 1u);
  EXPECT_GE(count_of(report.diagnostics, VerifyCheck::kUnusedTransition), 1u);
  EXPECT_GE(count_of(report.diagnostics, VerifyCheck::kDeadVcs), 1u);
}

TEST(VerifyPasses, UnreachableFlagged) {
  // A routing that orbits forever: every destination is unreachable.
  class NeverEject final : public noc::RoutingFunction {
   public:
    std::size_t at_injection(int, noc::Packet&) override { return 0; }
    noc::RouteInfo route(int, noc::Packet&, std::size_t klass) override {
      return {noc::RingTopology::kPortClockwise, klass};
    }
  };
  const noc::RingTopology topo(4);
  NeverEject routing;
  const VerifyReport report =
      verify_protocol(topo, routing, VcPartition::mesh(2, 1));
  EXPECT_TRUE(has_errors(report.diagnostics));
  EXPECT_GE(count_of(report.diagnostics, VerifyCheck::kUnreachablePair), 1u);
}

TEST(VerifyPasses, ZeroVcClassFlagged) {
  const noc::MeshTopology topo(4);
  noc::DorMeshRouting routing(topo);
  // One message class: reply traffic has no VCs anywhere.
  const VerifyReport report =
      verify_protocol(topo, routing, VcPartition::mesh(1, 2));
  EXPECT_TRUE(has_errors(report.diagnostics));
  EXPECT_GE(count_of(report.diagnostics, VerifyCheck::kZeroVcClass), 1u);
}

// ---- Static relation armed at runtime --------------------------------------

TEST(VerifyRuntime, RouteLegalityHookFiresOnBadRelation) {
  noc::SimConfig cfg;  // mesh defaults
  cfg.check_invariants = true;
  cfg.injection_rate = 0.3;
  noc::SimInstance sim(cfg);
  sim.checker().throw_on_violation();
  // An all-forbidden relation: the first committed lookahead route violates.
  sim.checker().set_transition_relation(TransitionRelation(1));
  try {
    sim.run_cycles(2000);
    FAIL() << "expected a route-legality violation";
  } catch (const noc::InvariantError& e) {
    EXPECT_EQ(e.violation().check, "route-legality");
  }
}

TEST(VerifyRuntime, VerifiedRelationRunsCleanOnTorus) {
  noc::SimConfig cfg;
  cfg.topology = noc::TopologyKind::kTorus8x8;
  cfg.injection_rate = 0.2;
  cfg.check_invariants = true;
  noc::SimInstance sim(cfg);
  // A checked SimInstance arms route legality by itself.
  ASSERT_FALSE(sim.checker().transition_relation().empty());
  EXPECT_EQ(sim.checker().transition_relation(), relation_for_config(cfg));
  sim.checker().throw_on_violation();
  sim.run_cycles(3000);  // throws on any violation
  EXPECT_GT(sim.checker().checks_run(), 0u);
  EXPECT_EQ(sim.checker().violations_seen(), 0u);
}

// The process-wide memo must hand out exactly what a fresh extraction
// computes, for every shipped protocol point (and its dateline-free fault
// variant, a separate key).
TEST(VerifyRuntime, CachedRelationMatchesFreshExtraction) {
  for (const ProtocolPoint& p : shipped_protocol_points()) {
    SCOPED_TRACE(p.name);
    EXPECT_EQ(cached_relation_for_config(p.cfg), relation_for_config(p.cfg));
    noc::SimConfig broken = p.cfg;
    broken.disable_datelines = true;
    EXPECT_EQ(cached_relation_for_config(broken),
              relation_for_config(broken));
  }
}

// Two checked instances of one curve (same design point, different load)
// share one memo entry: the first adds it, the second extracts nothing. The
// design point (a mesh with C = 3 and the dateline-free fault flag, which a
// mesh ignores) is one no other test uses, so the first instance must add
// exactly one entry.
TEST(VerifyRuntime, CheckedInstancesOfOneCurveShareOneRelation) {
  noc::SimConfig cfg;
  cfg.vcs_per_class = 3;
  cfg.disable_datelines = true;
  cfg.check_invariants = true;
  cfg.injection_rate = 0.1;
  const std::size_t before = cached_relation_count();
  noc::SimInstance low(cfg);
  EXPECT_EQ(cached_relation_count(), before + 1);
  cfg.injection_rate = 0.4;
  noc::SimInstance high(cfg);
  EXPECT_EQ(cached_relation_count(), before + 1);
  EXPECT_EQ(&cached_relation_for_config(cfg),
            &cached_relation_for_config(low.config()));
  EXPECT_EQ(high.checker().transition_relation(),
            low.checker().transition_relation());
  EXPECT_EQ(high.checker().transition_relation(), relation_for_config(cfg));
}

// Concurrent first lookups of one key (pool threads building the checked
// instances of one curve) all get the same entry.
TEST(VerifyRuntime, ConcurrentLookupsShareOneEntry) {
  noc::SimConfig cfg;
  cfg.topology = noc::TopologyKind::kRing16;
  cfg.vcs_per_class = 3;
  constexpr std::size_t kThreads = 4;
  std::vector<const TransitionRelation*> got(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&cfg, &got, t] { got[t] = &cached_relation_for_config(cfg); });
  }
  for (std::thread& t : threads) t.join();
  for (const TransitionRelation* rel : got) EXPECT_EQ(rel, got.front());
  EXPECT_EQ(*got.front(), relation_for_config(cfg));
}

// ---- Static-dynamic cross-check ---------------------------------------------

TEST(VerifyCrossCheck, BrokenTorusTripsWatchdogOnStaticallyNamedChannels) {
  noc::SimConfig cfg;
  cfg.topology = noc::TopologyKind::kTorus8x8;
  cfg.disable_datelines = true;
  cfg.check_invariants = true;
  cfg.vcs_per_class = 1;
  cfg.buffer_depth = 2;
  cfg.injection_rate = 0.6;
  cfg.seed = 7;

  // Static verdict: deadlock-capable, with full cycle witnesses.
  const VerifyReport report = verify_sim_config(cfg);
  ASSERT_TRUE(has_errors(report.diagnostics));
  std::vector<const VerifyDiagnostic*> witnesses;
  for (const VerifyDiagnostic& d : report.diagnostics) {
    if (d.check == VerifyCheck::kCdgCycle && !d.nodes.empty()) {
      witnesses.push_back(&d);
    }
  }
  ASSERT_FALSE(witnesses.empty());

  // Dynamic verdict: the same configuration deadlocks under simulation.
  noc::SimInstance sim(cfg);  // its route-legality check must stay silent
  sim.checker().throw_on_violation();
  sim.checker().config().deadlock_cycles = 500;
  bool deadlocked = false;
  try {
    sim.run_cycles(20000);
  } catch (const noc::InvariantError& e) {
    EXPECT_EQ(e.violation().check, "deadlock");
    deadlocked = true;
  }
  ASSERT_TRUE(deadlocked) << "broken torus did not trip the watchdog";

  // Cross-check the witness against the jammed network: at least one
  // statically reported cycle has every one of its channels backed up (the
  // downstream router of each named link still holds buffered flits).
  const ProtocolExtraction& ex = report.extraction;
  bool some_witness_jammed = false;
  for (const VerifyDiagnostic* w : witnesses) {
    bool all_jammed = true;
    for (const std::size_t node : w->nodes) {
      const VerifyChannel& ch = ex.channels[ex.channel_of_node(node)];
      if (ch.kind != ChannelKind::kLink ||
          sim.network().router(ch.dst_router).buffered_flits() == 0) {
        all_jammed = false;
        break;
      }
    }
    if (all_jammed) {
      some_witness_jammed = true;
      break;
    }
  }
  EXPECT_TRUE(some_witness_jammed)
      << "no statically reported cycle matches the jammed channels";
}

}  // namespace
}  // namespace nocalloc::verify
