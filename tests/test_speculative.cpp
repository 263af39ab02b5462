#include "sa/speculative_switch_allocator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "spec_dense.hpp"

namespace nocalloc {
namespace {

constexpr std::size_t kPorts = 5;
constexpr std::size_t kVcs = 2;

SwitchAllocatorConfig base_config() {
  return {kPorts, kVcs, AllocatorKind::kSeparableInputFirst,
          ArbiterKind::kRoundRobin};
}

std::vector<SwitchRequest> no_requests() {
  return std::vector<SwitchRequest>(kPorts * kVcs);
}

TEST(SpeculativeSwitchAllocator, SpecGrantsFlowWhenNoNonspecTraffic) {
  SpeculativeSwitchAllocator alloc(base_config(), SpecMode::kPessimistic);
  auto spec = no_requests();
  spec[0 * kVcs] = {true, 1};
  spec[2 * kVcs] = {true, 3};
  std::vector<SpecSwitchGrant> grant;
  allocate_dense(alloc, no_requests(), spec, grant);
  EXPECT_TRUE(grant[0].spec.granted());
  EXPECT_TRUE(grant[2].spec.granted());
  EXPECT_EQ(alloc.masked_spec_grants(), 0u);
}

TEST(SpeculativeSwitchAllocator, NonspecHasPriorityOnOutputConflict) {
  // Non-speculative request to output 1 from port 0; speculative request to
  // the same output from port 2: both policies must kill the spec grant.
  for (SpecMode mode : {SpecMode::kConservative, SpecMode::kPessimistic}) {
    SpeculativeSwitchAllocator alloc(base_config(), mode);
    auto nonspec = no_requests();
    nonspec[0 * kVcs] = {true, 1};
    auto spec = no_requests();
    spec[2 * kVcs] = {true, 1};
    std::vector<SpecSwitchGrant> grant;
    allocate_dense(alloc, nonspec, spec, grant);
    EXPECT_TRUE(grant[0].nonspec.granted());
    EXPECT_FALSE(grant[2].spec.granted()) << to_string(mode);
    EXPECT_EQ(alloc.masked_spec_grants(), 1u);
  }
}

TEST(SpeculativeSwitchAllocator, NonspecHasPriorityOnInputConflict) {
  // Same input port: non-speculative VC 0 to output 1, speculative VC 1 to
  // output 2. The spec grant shares the input port and must be discarded.
  for (SpecMode mode : {SpecMode::kConservative, SpecMode::kPessimistic}) {
    SpeculativeSwitchAllocator alloc(base_config(), mode);
    auto nonspec = no_requests();
    nonspec[0 * kVcs + 0] = {true, 1};
    auto spec = no_requests();
    spec[0 * kVcs + 1] = {true, 2};
    std::vector<SpecSwitchGrant> grant;
    allocate_dense(alloc, nonspec, spec, grant);
    EXPECT_TRUE(grant[0].nonspec.granted());
    EXPECT_FALSE(grant[0].spec.granted()) << to_string(mode);
  }
}

TEST(SpeculativeSwitchAllocator, PessimisticKillsOnLosingRequest) {
  // Two non-speculative requests compete for output 0; only one wins. A
  // speculative request to output 1 from the losing port:
  //   - conventional (spec_gnt) masks against grants only -> spec survives
  //   - pessimistic (spec_req) masks against requests -> spec dies
  // This is exactly the "wasted speculation opportunity" the paper trades
  // for critical-path delay (Sec. 5.2).
  auto build = [](SpecMode mode) {
    return SpeculativeSwitchAllocator(base_config(), mode);
  };

  auto nonspec = no_requests();
  nonspec[0 * kVcs] = {true, 0};
  nonspec[1 * kVcs] = {true, 0};
  auto spec = no_requests();
  spec[1 * kVcs + 1] = {true, 1};

  {
    SpeculativeSwitchAllocator conv = build(SpecMode::kConservative);
    std::vector<SpecSwitchGrant> grant;
    allocate_dense(conv, nonspec, spec, grant);
    // Port 0 wins output 0 non-speculatively (round-robin initial state).
    ASSERT_TRUE(grant[0].nonspec.granted());
    ASSERT_FALSE(grant[1].nonspec.granted());
    EXPECT_TRUE(grant[1].spec.granted())
        << "conventional scheme should use the losing port's spec grant";
  }
  {
    SpeculativeSwitchAllocator pess = build(SpecMode::kPessimistic);
    std::vector<SpecSwitchGrant> grant;
    allocate_dense(pess, nonspec, spec, grant);
    ASSERT_TRUE(grant[0].nonspec.granted());
    EXPECT_FALSE(grant[1].spec.granted())
        << "pessimistic scheme must mask on the conflicting request";
    EXPECT_EQ(pess.masked_spec_grants(), 1u);
  }
}

TEST(SpeculativeSwitchAllocator, CombinedGrantsFormValidMatching) {
  Rng rng(5);
  for (SpecMode mode : {SpecMode::kConservative, SpecMode::kPessimistic}) {
    SpeculativeSwitchAllocator alloc(base_config(), mode);
    std::vector<SpecSwitchGrant> grant;
    for (int trial = 0; trial < 500; ++trial) {
      auto nonspec = no_requests();
      auto spec = no_requests();
      for (std::size_t i = 0; i < kPorts * kVcs; ++i) {
        if (rng.next_bool(0.3)) {
          nonspec[i] = {true, static_cast<int>(rng.next_below(kPorts))};
        } else if (rng.next_bool(0.3)) {
          spec[i] = {true, static_cast<int>(rng.next_below(kPorts))};
        }
      }
      allocate_dense(alloc, nonspec, spec, grant);
      std::set<int> outputs;
      for (std::size_t p = 0; p < kPorts; ++p) {
        ASSERT_FALSE(grant[p].nonspec.granted() && grant[p].spec.granted())
            << "input port granted twice";
        if (grant[p].nonspec.granted()) {
          ASSERT_TRUE(outputs.insert(grant[p].nonspec.out_port).second);
          ASSERT_TRUE(
              nonspec[p * kVcs + static_cast<std::size_t>(grant[p].nonspec.vc)]
                  .valid);
        }
        if (grant[p].spec.granted()) {
          ASSERT_TRUE(outputs.insert(grant[p].spec.out_port).second);
          ASSERT_TRUE(
              spec[p * kVcs + static_cast<std::size_t>(grant[p].spec.vc)]
                  .valid);
        }
      }
    }
  }
}

TEST(SpeculativeSwitchAllocator, PessimisticNeverOutperformsConventional) {
  // Property: on identical inputs, every spec grant surviving the
  // pessimistic mask also survives the conventional mask (grants imply
  // requests, so the pessimistic busy sets are supersets).
  Rng rng(7);
  SpeculativeSwitchAllocator conv(base_config(), SpecMode::kConservative);
  SpeculativeSwitchAllocator pess(base_config(), SpecMode::kPessimistic);
  std::vector<SpecSwitchGrant> cg, pg;
  std::uint64_t conv_spec = 0, pess_spec = 0;
  for (int trial = 0; trial < 500; ++trial) {
    auto nonspec = no_requests();
    auto spec = no_requests();
    for (std::size_t i = 0; i < kPorts * kVcs; ++i) {
      if (rng.next_bool(0.35)) {
        nonspec[i] = {true, static_cast<int>(rng.next_below(kPorts))};
      } else if (rng.next_bool(0.35)) {
        spec[i] = {true, static_cast<int>(rng.next_below(kPorts))};
      }
    }
    allocate_dense(conv, nonspec, spec, cg);
    allocate_dense(pess, nonspec, spec, pg);
    for (std::size_t p = 0; p < kPorts; ++p) {
      conv_spec += cg[p].spec.granted() ? 1 : 0;
      pess_spec += pg[p].spec.granted() ? 1 : 0;
    }
  }
  EXPECT_LE(pess_spec, conv_spec);
  EXPECT_GE(pess.masked_spec_grants(), conv.masked_spec_grants());
}

TEST(SpeculativeSwitchAllocator, ResetClearsCounters) {
  SpeculativeSwitchAllocator alloc(base_config(), SpecMode::kPessimistic);
  auto nonspec = no_requests();
  nonspec[0] = {true, 0};
  auto spec = no_requests();
  spec[1 * kVcs] = {true, 0};
  std::vector<SpecSwitchGrant> grant;
  allocate_dense(alloc, nonspec, spec, grant);
  EXPECT_GT(alloc.masked_spec_grants(), 0u);
  alloc.reset();
  EXPECT_EQ(alloc.masked_spec_grants(), 0u);
}

std::vector<std::uint8_t> state_bytes(
    const std::function<void(StateArchive&)>& save) {
  std::vector<std::uint8_t> bytes;
  StateArchive ar = StateArchive::saving_to(bytes);
  save(ar);
  return bytes;
}

// A nonspec stage is its bare inner allocator: beside a make_switch_allocator
// twin on the same random requests it must grant the same, never grant
// speculatively (its speculative requests are ignored), mask nothing, and
// save the same state bytes, for every family and arbiter kind.
TEST(SpeculativeSwitchAllocator, NonSpeculativeModeIsTheBareAllocator) {
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront,
        AllocatorKind::kMaximumSize}) {
    for (ArbiterKind arb : {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix}) {
      const SwitchAllocatorConfig cfg{kPorts, kVcs, kind, arb};
      const std::string name = to_string(kind) + "/" + to_string(arb);
      SpeculativeSwitchAllocator stage(cfg, SpecMode::kNonSpeculative);
      auto bare = make_switch_allocator(cfg);
      Rng rng(13);
      std::vector<SpecSwitchGrant> got;
      std::vector<SwitchGrant> want;
      for (int cycle = 0; cycle < 300; ++cycle) {
        const double rate = (cycle % 10) * 0.1;
        auto nonspec = no_requests();
        auto spec = no_requests();
        for (std::size_t i = 0; i < kPorts * kVcs; ++i) {
          if (rng.next_bool(rate)) {
            nonspec[i] = {true, static_cast<int>(rng.next_below(kPorts))};
          }
          if (rng.next_bool(rate)) {
            spec[i] = {true, static_cast<int>(rng.next_below(kPorts))};
          }
        }
        allocate_dense(stage, nonspec, spec, got);
        bare->allocate(nonspec, want);
        ASSERT_EQ(got.size(), want.size()) << name;
        for (std::size_t p = 0; p < kPorts; ++p) {
          ASSERT_EQ(got[p].nonspec.vc, want[p].vc)
              << name << " cycle " << cycle << " port " << p;
          ASSERT_EQ(got[p].nonspec.out_port, want[p].out_port)
              << name << " cycle " << cycle << " port " << p;
          ASSERT_FALSE(got[p].spec.granted())
              << name << " cycle " << cycle << " port " << p;
        }
        ASSERT_EQ(stage.masked_spec_grants(), 0u) << name;
        ASSERT_EQ(state_bytes([&](StateArchive& ar) { stage.state(ar); }),
                  state_bytes([&](StateArchive& ar) { bare->state(ar); }))
            << name << " cycle " << cycle;
      }
    }
  }
}

TEST(SpecModeNames, MatchPaperLabels) {
  EXPECT_EQ(to_string(SpecMode::kNonSpeculative), "nonspec");
  EXPECT_EQ(to_string(SpecMode::kConservative), "spec_gnt");
  EXPECT_EQ(to_string(SpecMode::kPessimistic), "spec_req");
}

}  // namespace
}  // namespace nocalloc
