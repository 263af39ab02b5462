// InvariantChecker tests: a clean mesh run must pass every check, and
// deliberately broken allocators (injected via the RouterConfig factories)
// must trip the corresponding violations.
#include "noc/invariants.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

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

/// Grants the global output VC 0 to the lowest input VC that is absent from
/// the call's requests (which arrive ascending by input).
class BrokenVcAllocator : public VcAllocator {
 public:
  using VcAllocator::VcAllocator;
  void allocate_sparse(const FastVcRequest* req, std::size_t n,
                       std::vector<int>& grant) override {
    std::size_t input = 0;
    for (std::size_t k = 0; k < n && req[k].input == input; ++k) ++input;
    if (input < grant.size()) grant[input] = 0;  // the rest stay -1
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

/// Grants output port 0 to VC 0 of the lowest input port without a request
/// in the call.
class BrokenSwitchAllocator : public SwitchAllocator {
 public:
  using SwitchAllocator::SwitchAllocator;
  void allocate_sparse(const bits::Word* vc_words, const std::uint8_t*,
                       std::vector<SwitchGrant>& grant) override {
    grant.assign(ports(), SwitchGrant{});
    for (std::size_t p = 0; p < ports(); ++p) {
      if (vc_words[p] == 0) {
        grant[p] = SwitchGrant{0, 0};
        return;
      }
    }
  }
  void reset() override {}
};

/// Steps `net` until the checker throws and returns that violation, or
/// nothing after `cycles` clean steps.
std::optional<InvariantViolation> first_violation(Network& net, int cycles) {
  for (int i = 0; i < cycles; ++i) {
    try {
      net.step();
    } catch (const InvariantError& e) {
      return e.violation();
    }
  }
  return std::nullopt;
}

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

// The allocators run only when a request reaches them, as in an unchecked
// run, so the broken ones are driven at light load. Each call grants an
// input that made no request, which the checker must catch on the first
// call.
TEST(Invariants, BrokenVcAllocatorIsCaught) {
  NetworkConfig cfg = base_config(0.05);
  cfg.router.vc_alloc_factory = [](const VcAllocatorConfig& va) {
    return std::make_unique<BrokenVcAllocator>(va.ports,
                                               va.partition.total_vcs());
  };
  Harness h(cfg);
  InvariantChecker checker;
  checker.throw_on_violation();
  h.net->attach_invariant_checker(&checker);

  const auto v = first_violation(*h.net, 500);
  ASSERT_TRUE(v.has_value()) << "broken VC allocator not detected";
  EXPECT_EQ(v->check, "vc-alloc");
  EXPECT_GE(v->router, 0);
  EXPECT_NE(v->message.find("no request"), std::string::npos);
  EXPECT_EQ(checker.violations_seen(), 1u);
}

TEST(Invariants, BrokenSwitchAllocatorIsCaught) {
  NetworkConfig cfg = base_config(0.05);
  cfg.router.spec = SpecMode::kNonSpeculative;
  cfg.router.sw_alloc_factory = [](const SwitchAllocatorConfig& sa) {
    return std::make_unique<BrokenSwitchAllocator>(sa.ports, sa.vcs);
  };
  Harness h(cfg);
  InvariantChecker checker;
  checker.throw_on_violation();
  h.net->attach_invariant_checker(&checker);

  const auto v = first_violation(*h.net, 500);
  ASSERT_TRUE(v.has_value()) << "broken switch allocator not detected";
  EXPECT_EQ(v->check, "sw-alloc");
  EXPECT_GE(v->port, 0);
  EXPECT_NE(v->message.find("no request"), std::string::npos);
  EXPECT_EQ(checker.violations_seen(), 1u);
}

// The factory builds every inner allocator of the switch-allocation stage,
// so a speculative router runs the broken allocator on both sides.
TEST(Invariants, BrokenSwitchAllocatorIsCaughtOnSpeculativeRouter) {
  NetworkConfig cfg = base_config(0.05);
  cfg.router.spec = SpecMode::kPessimistic;
  cfg.router.sw_alloc_factory = [](const SwitchAllocatorConfig& sa) {
    return std::make_unique<BrokenSwitchAllocator>(sa.ports, sa.vcs);
  };
  Harness h(cfg);
  InvariantChecker checker;
  checker.throw_on_violation();
  h.net->attach_invariant_checker(&checker);

  const auto v = first_violation(*h.net, 500);
  ASSERT_TRUE(v.has_value()) << "broken switch allocator not detected";
  EXPECT_EQ(v->check, "spec-sw-alloc");
  EXPECT_GE(v->port, 0);
  EXPECT_NE(v->message.find("no request"), std::string::npos);
  EXPECT_EQ(checker.violations_seen(), 1u);
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
