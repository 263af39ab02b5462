#include "sa/switch_allocator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.hpp"

namespace nocalloc {
namespace {

std::vector<SwitchRequest> random_requests(std::size_t ports, std::size_t vcs,
                                           double rate, Rng& rng) {
  std::vector<SwitchRequest> req(ports * vcs);
  for (auto& r : req) {
    r.valid = rng.next_bool(rate);
    r.out_port = r.valid ? static_cast<int>(rng.next_below(ports)) : -1;
  }
  return req;
}

void expect_valid(const std::vector<SwitchRequest>& req,
                  const std::vector<SwitchGrant>& grant, std::size_t ports,
                  std::size_t vcs) {
  ASSERT_EQ(grant.size(), ports);
  std::set<int> outputs;
  for (std::size_t p = 0; p < ports; ++p) {
    const SwitchGrant& g = grant[p];
    if (!g.granted()) continue;
    ASSERT_GE(g.vc, 0);
    ASSERT_LT(static_cast<std::size_t>(g.vc), vcs);
    const SwitchRequest& r = req[p * vcs + static_cast<std::size_t>(g.vc)];
    ASSERT_TRUE(r.valid) << "granted VC did not request";
    ASSERT_EQ(r.out_port, g.out_port) << "granted wrong output";
    ASSERT_TRUE(outputs.insert(g.out_port).second)
        << "output port granted twice";
  }
}

struct SaParam {
  AllocatorKind kind;
  ArbiterKind arb;
  std::size_t ports;
  std::size_t vcs;
};

class SwitchAllocatorPropertyTest : public ::testing::TestWithParam<SaParam> {
 protected:
  std::unique_ptr<SwitchAllocator> make() const {
    const SaParam& p = GetParam();
    return make_switch_allocator({p.ports, p.vcs, p.kind, p.arb});
  }
};

TEST_P(SwitchAllocatorPropertyTest, GrantsAreValidPortMatchings) {
  auto alloc = make();
  Rng rng(3);
  std::vector<SwitchGrant> grant;
  for (int trial = 0; trial < 300; ++trial) {
    auto req =
        random_requests(GetParam().ports, GetParam().vcs, 0.4, rng);
    alloc->allocate(req, grant);
    expect_valid(req, grant, GetParam().ports, GetParam().vcs);
  }
}

TEST_P(SwitchAllocatorPropertyTest, NonConflictingRequestsAllGranted) {
  // One request per input port, all to distinct outputs: a permutation that
  // every architecture must grant in full.
  auto alloc = make();
  const std::size_t ports = GetParam().ports;
  const std::size_t vcs = GetParam().vcs;
  std::vector<SwitchRequest> req(ports * vcs);
  for (std::size_t p = 0; p < ports; ++p) {
    req[p * vcs] = {true, static_cast<int>((p + 1) % ports)};
  }
  std::vector<SwitchGrant> grant;
  alloc->allocate(req, grant);
  for (std::size_t p = 0; p < ports; ++p) {
    ASSERT_TRUE(grant[p].granted());
    EXPECT_EQ(grant[p].vc, 0);
    EXPECT_EQ(grant[p].out_port, static_cast<int>((p + 1) % ports));
  }
}

TEST_P(SwitchAllocatorPropertyTest, AtMostOneVcPerInputPort) {
  // The defining switch-allocation constraint (Sec. 5.1): grant.vc is a
  // single VC per port by construction; this verifies no double-pop hazard
  // by checking that under total contention exactly min(P, requests) flits
  // win overall.
  auto alloc = make();
  const std::size_t ports = GetParam().ports;
  const std::size_t vcs = GetParam().vcs;
  std::vector<SwitchRequest> req(ports * vcs);
  // All VCs of port 0 request output 0; nothing else.
  for (std::size_t v = 0; v < vcs; ++v) req[v] = {true, 0};
  std::vector<SwitchGrant> grant;
  alloc->allocate(req, grant);
  ASSERT_TRUE(grant[0].granted());
  for (std::size_t p = 1; p < ports; ++p) EXPECT_FALSE(grant[p].granted());
}

TEST_P(SwitchAllocatorPropertyTest, NoStarvationUnderFullLoad) {
  // The maximum-size reference is exempt: Sec. 2.3 notes it "inherently
  // does not provide any fairness guarantees, and can cause starvation".
  if (GetParam().kind == AllocatorKind::kMaximumSize) {
    GTEST_SKIP() << "maximum-size allocation provides no fairness guarantee";
  }
  auto alloc = make();
  const std::size_t ports = GetParam().ports;
  const std::size_t vcs = GetParam().vcs;
  // Every VC requests a fixed output (spread across ports).
  std::vector<SwitchRequest> req(ports * vcs);
  for (std::size_t p = 0; p < ports; ++p) {
    for (std::size_t v = 0; v < vcs; ++v) {
      req[p * vcs + v] = {true, static_cast<int>((p + v) % ports)};
    }
  }
  std::vector<int> wins(ports * vcs, 0);
  std::vector<SwitchGrant> grant;
  for (std::size_t round = 0; round < 8 * ports * vcs; ++round) {
    alloc->allocate(req, grant);
    for (std::size_t p = 0; p < ports; ++p) {
      if (grant[p].granted()) {
        ++wins[p * vcs + static_cast<std::size_t>(grant[p].vc)];
      }
    }
  }
  for (std::size_t i = 0; i < wins.size(); ++i) {
    EXPECT_GT(wins[i], 0) << "input VC " << i << " starved";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, SwitchAllocatorPropertyTest,
    ::testing::Values(
        SaParam{AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin, 5, 2},
        SaParam{AllocatorKind::kSeparableInputFirst, ArbiterKind::kMatrix, 5, 4},
        SaParam{AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin, 10, 8},
        SaParam{AllocatorKind::kSeparableOutputFirst, ArbiterKind::kRoundRobin, 5, 2},
        SaParam{AllocatorKind::kSeparableOutputFirst, ArbiterKind::kMatrix, 5, 4},
        SaParam{AllocatorKind::kSeparableOutputFirst, ArbiterKind::kRoundRobin, 10, 8},
        SaParam{AllocatorKind::kWavefront, ArbiterKind::kRoundRobin, 5, 2},
        SaParam{AllocatorKind::kWavefront, ArbiterKind::kRoundRobin, 10, 8},
        SaParam{AllocatorKind::kMaximumSize, ArbiterKind::kRoundRobin, 5, 4},
        SaParam{AllocatorKind::kMaximumSize, ArbiterKind::kRoundRobin, 10, 16}),
    [](const ::testing::TestParamInfo<SaParam>& info) {
      return to_string(info.param.kind) + "_" + to_string(info.param.arb) +
             "_P" + std::to_string(info.param.ports) + "V" +
             std::to_string(info.param.vcs);
    });

// ---------------------------------------------------------------------------
// Architecture-specific behaviour from Sec. 5.3.2.

TEST(SaSeparableInputFirst, OnlyOneRequestPerPortReachesStageTwo) {
  // Input port 0 has two VCs wanting different free outputs; input-first
  // can serve only one of them per cycle, so at most one grant for port 0
  // even though both outputs are idle.
  auto alloc = make_switch_allocator(
      {4, 2, AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin});
  std::vector<SwitchRequest> req(4 * 2);
  req[0] = {true, 0};
  req[1] = {true, 1};
  std::vector<SwitchGrant> grant;
  alloc->allocate(req, grant);
  ASSERT_TRUE(grant[0].granted());
  // Only one output can be claimed by port 0.
  int used = 0;
  for (const auto& g : grant) used += g.granted() ? 1 : 0;
  EXPECT_EQ(used, 1);
}

TEST(SaWavefront, FindsMaximalPortMatching) {
  // Request pattern where separable input-first typically loses a grant:
  // ports 0 and 1 both want output 0; port 1 also wants output 1.
  // A maximal matcher grants {0->0, 1->1} or {1->0, ...}; total 2 grants.
  auto wf = make_switch_allocator(
      {3, 2, AllocatorKind::kWavefront, ArbiterKind::kRoundRobin});
  std::vector<SwitchRequest> req(3 * 2);
  req[0 * 2 + 0] = {true, 0};
  req[1 * 2 + 0] = {true, 0};
  req[1 * 2 + 1] = {true, 1};
  std::vector<SwitchGrant> grant;
  std::size_t total = 0;
  wf->allocate(req, grant);
  for (const auto& g : grant) total += g.granted() ? 1 : 0;
  EXPECT_EQ(total, 2u);
}

TEST(SaComparison, WavefrontQualityAtLeastSeparableInputFirst) {
  Rng rng_a(9), rng_b(9);
  auto wf = make_switch_allocator(
      {10, 8, AllocatorKind::kWavefront, ArbiterKind::kRoundRobin});
  auto sep = make_switch_allocator(
      {10, 8, AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin});
  std::uint64_t wf_grants = 0, sep_grants = 0;
  std::vector<SwitchGrant> grant;
  for (int trial = 0; trial < 500; ++trial) {
    auto req_a = random_requests(10, 8, 0.5, rng_a);
    auto req_b = random_requests(10, 8, 0.5, rng_b);
    wf->allocate(req_a, grant);
    for (const auto& g : grant) wf_grants += g.granted() ? 1 : 0;
    sep->allocate(req_b, grant);
    for (const auto& g : grant) sep_grants += g.granted() ? 1 : 0;
  }
  EXPECT_GT(wf_grants, sep_grants);
}

// Malformed dense requests abort on both paths: dense allocate() validates
// them in the one pass that packs them for the kernel and the reference
// alike.
TEST(SwitchAllocatorDeathTest, MalformedRequestsAbortOnBothPaths) {
  const std::size_t ports = 5;
  const std::size_t vcs = 4;
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront,
        AllocatorKind::kMaximumSize}) {
    for (bool ref : {false, true}) {
      auto alloc =
          make_switch_allocator({ports, vcs, kind, ArbiterKind::kRoundRobin});
      alloc->set_reference_path(ref);
      const std::string where =
          to_string(kind) + (ref ? " reference" : " kernel");
      std::vector<SwitchRequest> good(ports * vcs);
      good[6] = {true, 2};
      std::vector<SwitchGrant> grant;
      alloc->allocate(good, grant);
      ASSERT_EQ(grant[1].out_port, 2) << where;

      std::vector<SwitchRequest> bad = good;
      bad.pop_back();
      EXPECT_DEATH(alloc->allocate(bad, grant), "check failed") << where;
      bad = good;
      bad.push_back({});
      EXPECT_DEATH(alloc->allocate(bad, grant), "check failed") << where;
      for (int port : {-1, static_cast<int>(ports)}) {
        bad = good;
        bad[6].out_port = port;
        EXPECT_DEATH(alloc->allocate(bad, grant), "check failed")
            << where << " out_port " << port;
      }
    }
  }
}

TEST(SwitchAllocatorFactory, RejectsZeroDimensions) {
  EXPECT_DEATH(make_switch_allocator({0, 2}), "check failed");
  EXPECT_DEATH(make_switch_allocator({5, 0}), "check failed");
}

}  // namespace
}  // namespace nocalloc
