// InvariantChecker tests: a clean mesh run must pass every check, and
// deliberately broken allocators (injected via the RouterConfig factories)
// must trip the corresponding violations.
#include "noc/invariants.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/sim.hpp"

namespace nocalloc::noc {
namespace {

struct Harness {
  explicit Harness(const NetworkConfig& cfg) : topo(4) {
    net = std::make_unique<Network>(
        topo, cfg,
        [this](const CongestionOracle&) {
          return std::make_unique<DorMeshRouting>(topo);
        },
        [this](const Packet& pkt, Cycle now) {
          if (is_request(pkt.type)) {
            net->terminal(pkt.dst_terminal)
                .enqueue_reply(make_reply(pkt, now, next_reply_id++));
          }
        });
  }

  MeshTopology topo;
  std::unique_ptr<Network> net;
  std::uint64_t next_reply_id = 1ull << 60;
};

NetworkConfig base_config(double request_rate) {
  NetworkConfig cfg;
  cfg.router.ports = 5;
  cfg.router.partition = VcPartition::mesh(2, 2);
  cfg.router.buffer_depth = 4;
  cfg.pattern = TrafficPattern::kUniform;
  cfg.request_rate = request_rate;
  cfg.seed = 11;
  return cfg;
}

// ---- Broken allocators ------------------------------------------------------

/// Grants input VC 0 the global output VC 0 every cycle, requests or not.
class BrokenVcAllocator : public VcAllocator {
 public:
  using VcAllocator::VcAllocator;
  void allocate_sparse(const FastVcRequest*, std::size_t,
                       std::vector<int>& grant) override {
    grant[0] = 0;  // every other entry stays -1
  }
  void reset() override {}
};

/// Never grants anything: heads wait for VC allocation forever.
class StarvingVcAllocator : public VcAllocator {
 public:
  using VcAllocator::VcAllocator;
  void allocate_sparse(const FastVcRequest*, std::size_t,
                       std::vector<int>&) override {}  // every entry stays -1
  void reset() override {}
};

/// Grants input port 0 a crossbar slot it never requested.
class BrokenSwitchAllocator : public SwitchAllocator {
 public:
  using SwitchAllocator::SwitchAllocator;
  void allocate_sparse(const bits::Word*, const std::uint8_t*,
                       std::vector<SwitchGrant>& grant) override {
    grant.assign(ports(), SwitchGrant{});
    grant[0] = SwitchGrant{0, 0};
  }
  void reset() override {}
};

// ---- Tests ------------------------------------------------------------------

TEST(Invariants, CleanRunPassesAllChecks) {
  Harness h(base_config(0.05));
  InvariantChecker checker;
  checker.throw_on_violation();
  h.net->attach_invariant_checker(&checker);
  for (int i = 0; i < 2000; ++i) h.net->step();
  EXPECT_GT(checker.checks_run(), 0u);
  EXPECT_EQ(checker.violations_seen(), 0u);
  EXPECT_GT(h.net->flits_ejected(), 0u);  // the run actually moved traffic
}

TEST(Invariants, CleanSpeculativeModesPass) {
  for (SpecMode spec :
       {SpecMode::kNonSpeculative, SpecMode::kPessimistic,
        SpecMode::kConservative}) {
    NetworkConfig cfg = base_config(0.05);
    cfg.router.spec = spec;
    Harness h(cfg);
    InvariantChecker checker;
    checker.throw_on_violation();
    h.net->attach_invariant_checker(&checker);
    for (int i = 0; i < 1500; ++i) h.net->step();
    EXPECT_EQ(checker.violations_seen(), 0u) << to_string(spec);
  }
}

TEST(Invariants, BrokenVcAllocatorIsCaught) {
  NetworkConfig cfg = base_config(0.0);
  cfg.router.vc_alloc_factory = [](const VcAllocatorConfig& va) {
    return std::make_unique<BrokenVcAllocator>(va.ports,
                                               va.partition.total_vcs());
  };
  Harness h(cfg);
  InvariantChecker checker;
  checker.throw_on_violation();
  h.net->attach_invariant_checker(&checker);

  // No traffic, so the unconditional grant targets an input VC with no
  // request: the checker must fire on the very first allocation.
  try {
    h.net->step();
    FAIL() << "broken VC allocator not detected";
  } catch (const InvariantError& e) {
    EXPECT_EQ(e.violation().check, "vc-alloc");
    EXPECT_GE(e.violation().router, 0);
    EXPECT_NE(std::string(e.what()).find("no request"), std::string::npos);
  }
  EXPECT_EQ(checker.violations_seen(), 1u);
}

TEST(Invariants, BrokenSwitchAllocatorIsCaught) {
  NetworkConfig cfg = base_config(0.0);
  cfg.router.spec = SpecMode::kNonSpeculative;
  cfg.router.sw_alloc_factory = [](const SwitchAllocatorConfig& sa) {
    return std::make_unique<BrokenSwitchAllocator>(sa.ports, sa.vcs);
  };
  Harness h(cfg);
  InvariantChecker checker;
  checker.throw_on_violation();
  h.net->attach_invariant_checker(&checker);

  try {
    h.net->step();
    FAIL() << "broken switch allocator not detected";
  } catch (const InvariantError& e) {
    EXPECT_EQ(e.violation().check, "sw-alloc");
    EXPECT_EQ(e.violation().port, 0);
  }
  EXPECT_GE(checker.violations_seen(), 1u);
}

// The factory builds every inner allocator of the switch-allocation stage,
// so a speculative router runs the broken allocator on both sides. With no
// traffic nothing masks the speculative grant, and both sides grant input
// port 0 in the same cycle.
TEST(Invariants, BrokenSwitchAllocatorIsCaughtOnSpeculativeRouter) {
  NetworkConfig cfg = base_config(0.0);
  cfg.router.spec = SpecMode::kPessimistic;
  cfg.router.sw_alloc_factory = [](const SwitchAllocatorConfig& sa) {
    return std::make_unique<BrokenSwitchAllocator>(sa.ports, sa.vcs);
  };
  Harness h(cfg);
  InvariantChecker checker;
  checker.throw_on_violation();
  h.net->attach_invariant_checker(&checker);

  try {
    h.net->step();
    FAIL() << "broken switch allocator not detected";
  } catch (const InvariantError& e) {
    EXPECT_EQ(e.violation().check, "spec-sw-alloc");
    EXPECT_EQ(e.violation().port, 0);
    EXPECT_NE(std::string(e.what()).find("both speculative and "
                                         "non-speculative grants"),
              std::string::npos);
  }
  EXPECT_GE(checker.violations_seen(), 1u);
}

TEST(Invariants, DeadlockWatchdogFiresOnStarvation) {
  // A VC allocator that never grants strands every head flit in kWaitVc:
  // flits sit buffered with no movement until the watchdog horizon expires.
  NetworkConfig cfg = base_config(0.2);
  cfg.router.spec = SpecMode::kNonSpeculative;
  cfg.router.vc_alloc_factory = [](const VcAllocatorConfig& va) {
    return std::make_unique<StarvingVcAllocator>(va.ports,
                                                 va.partition.total_vcs());
  };
  Harness h(cfg);
  InvariantCheckerConfig ccfg;
  ccfg.deadlock_cycles = 100;
  InvariantChecker checker(ccfg);
  checker.throw_on_violation();
  h.net->attach_invariant_checker(&checker);

  bool fired = false;
  for (int i = 0; i < 2000 && !fired; ++i) {
    try {
      h.net->step();
    } catch (const InvariantError& e) {
      EXPECT_EQ(e.violation().check, "deadlock");
      fired = true;
    }
  }
  EXPECT_TRUE(fired);
}

TEST(Invariants, ViolationFormattingNamesLocation) {
  InvariantViolation v;
  v.cycle = 42;
  v.router = 3;
  v.port = 1;
  v.vc = 0;
  v.check = "credit-conservation";
  v.message = "sum mismatch";
  const std::string s = to_string(v);
  EXPECT_NE(s.find("cycle 42"), std::string::npos);
  EXPECT_NE(s.find("router 3"), std::string::npos);
  EXPECT_NE(s.find("port 1"), std::string::npos);
  EXPECT_NE(s.find("credit-conservation"), std::string::npos);
}

TEST(Invariants, DetachedCheckerIsInert) {
  Harness h(base_config(0.05));
  InvariantChecker checker;
  checker.throw_on_violation();
  h.net->attach_invariant_checker(&checker);
  h.net->step();
  h.net->attach_invariant_checker(nullptr);
  const std::uint64_t checks = checker.checks_run();
  for (int i = 0; i < 50; ++i) h.net->step();
  EXPECT_EQ(checker.checks_run(), checks);
}

TEST(Invariants, SimDriverRunsWithCheckerEnabled) {
  // End-to-end: run_simulation with check_invariants must complete a short
  // mesh simulation without the default abort handler firing.
  SimConfig cfg;
  cfg.topology = TopologyKind::kMesh8x8;
  cfg.vcs_per_class = 1;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 500;
  cfg.check_invariants = true;
  const SimResult result = run_simulation(cfg);
  EXPECT_GT(result.packets_measured, 0u);
}

}  // namespace
}  // namespace nocalloc::noc
