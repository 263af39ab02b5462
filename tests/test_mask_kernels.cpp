// Differential tests for the single-word arbiter picks and the allocator
// kernels.
//
// Every ArbiterBank single-word pick must select the same winner as the
// bank's byte-loop pick_bytes, and every kernel-backed VC and switch
// allocator driven through its dense allocate() -- which packs the
// requests and runs the same single-word kernel the router runs -- must
// emit the same grants, cycle after cycle, as a twin instance running the
// byte-loop reference path (set_reference_path(true)) on the same request
// stream. The allocator-level tests sweep all 145 paper design points
// (src/lint/design_points.hpp) across multiple seeds and request
// densities. Shapes too wide for one word have no kernel and no fallback:
// every family's constructor rejects them. The EmptyCycleReplay tests pin
// the replay the router uses for stages and cycles without requests.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "arbiter/arbiter_bank.hpp"
#include "common/rng.hpp"
#include "lint/design_points.hpp"
#include "sa/speculative_switch_allocator.hpp"
#include "sa/switch_allocator.hpp"
#include "spec_dense.hpp"
#include "vc/vc_allocator.hpp"

namespace nocalloc {
namespace {

ReqVector random_req(std::size_t n, double rate, Rng& rng) {
  ReqVector req(n, 0);
  for (auto& r : req) r = rng.next_bool(rate) ? 1 : 0;
  return req;
}

// Every arbiter of a bank must pick, in its single-word pick(), the winner
// its byte-loop pick_bytes() picks on the same requests, for both kinds
// across every width up to one full word, with on-success updates applied
// so the winners are compared across evolving round-robin pointers and
// matrix priorities.
TEST(ArbiterBank, PickMatchesPickBytes) {
  constexpr std::size_t kArbiters = 3;
  for (ArbiterKind kind : {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix}) {
    for (std::size_t n = 1; n <= bits::kWordBits; ++n) {
      ArbiterBank bank(kind, kArbiters, n);
      Rng rng(0xA0 + n);
      for (int round = 0; round < 120; ++round) {
        const std::size_t k = rng.next_below(kArbiters);
        const double rate = (round % 10) * 0.1 + 0.02;
        const ReqVector req = random_req(n, rate, rng);
        bits::Word word = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (req[i]) word |= bits::bit(i);
        }
        const int want = bank.pick_bytes(k, req);
        ASSERT_EQ(bank.pick(k, word), want)
            << to_string(kind) << " n=" << n << " round " << round;
        if (want >= 0 && rng.next_bool(0.7)) bank.update(k, want);
      }
    }
  }
}

// The single-word tree_pick over a top/local bank pair (the output-VC trees
// of Sec. 4.1) must pick the winner tree_pick_bytes picks on the same banks.
TEST(ArbiterBank, TreePickMatchesTreePickBytes) {
  constexpr std::size_t kTrees = 4;
  for (ArbiterKind kind : {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix}) {
    const std::size_t groups = 5;
    const std::size_t group_size = 3;
    ArbiterBank top(kind, kTrees, groups);
    ArbiterBank local(kind, kTrees * groups, group_size);
    Rng rng(0x7EE);
    for (int round = 0; round < 400; ++round) {
      const std::size_t k = rng.next_below(kTrees);
      const ReqVector req =
          random_req(groups * group_size, (round % 5) * 0.1 + 0.05, rng);
      bits::Word groups_req = 0;
      std::vector<bits::Word> group_req(groups, 0);
      for (std::size_t i = 0; i < req.size(); ++i) {
        if (!req[i]) continue;
        groups_req |= bits::bit(i / group_size);
        group_req[i / group_size] |= bits::bit(i % group_size);
      }
      const int want = tree_pick_bytes(top, local, k, req);
      ASSERT_EQ(tree_pick(top, local, k, groups_req, group_req.data()), want)
          << to_string(kind) << " round " << round;
      if (want >= 0) tree_update(top, local, k, static_cast<std::size_t>(want));
    }
  }
}

// No save ever writes a round-robin pointer equal to the arbiter's width,
// so loading one aborts.
TEST(ArbiterBankDeathTest, LoadRejectsPointerAtWidth) {
  for (const std::uint64_t ptr : {std::uint64_t{5}, std::uint64_t{6}}) {
    std::vector<std::uint8_t> bytes(sizeof ptr);
    std::memcpy(bytes.data(), &ptr, sizeof ptr);
    ArbiterBank bank(ArbiterKind::kRoundRobin, 2, 5);
    StateArchive ar = StateArchive::loading_from(bytes);
    EXPECT_DEATH(bank.state(ar, 1), "check failed: ptr < width_");
  }
  std::uint64_t ok = 4;
  std::vector<std::uint8_t> bytes(sizeof ok);
  std::memcpy(bytes.data(), &ok, sizeof ok);
  ArbiterBank bank(ArbiterKind::kRoundRobin, 1, 5);
  StateArchive ar = StateArchive::loading_from(bytes);
  bank.state(ar, 0);
  EXPECT_EQ(bank.pick(0, bits::bit(0) | bits::bit(4)), 4);
}

// The lint regression net and these differential tests must cover the same
// universe: every allocator configuration the paper synthesizes.
TEST(DesignPoints, CoverAll145) {
  const auto vc = hw::paper_vc_design_points();
  const auto sa = hw::paper_sa_design_points();
  EXPECT_EQ(vc.size(), 40u);
  EXPECT_EQ(sa.size(), 105u);
  EXPECT_EQ(vc.size() + sa.size(), 145u);
}

/// The state() bytes of an allocator or a switch-allocation stage.
template <typename T>
std::vector<std::uint8_t> state_bytes(T& x) {
  std::vector<std::uint8_t> out;
  StateArchive ar = StateArchive::saving_to(out);
  x.state(ar);
  return out;
}

std::vector<SwitchRequest> random_sa_requests(std::size_t ports,
                                              std::size_t vcs, double rate,
                                              Rng& rng) {
  std::vector<SwitchRequest> req(ports * vcs);
  for (auto& r : req) {
    r.valid = rng.next_bool(rate);
    r.out_port = r.valid ? static_cast<int>(rng.next_below(ports)) : -1;
  }
  return req;
}

// Runs twin switch-allocation stages in the point's SpecMode -- one on its
// kernels, one on the reference path -- on an identical request stream and
// requires identical grants, masked-grant counts and state bytes. A nonspec
// stage ignores its speculative requests. Some cycles leave one side
// without any request, which the kernel stage skips (replaying it as
// advance_priority(1)) and the reference stage runs.
void diff_sa_point(const hw::SaDesignPoint& p, std::uint64_t seed,
                     int cycles) {
  const SwitchAllocatorConfig cfg{p.cfg.ports, p.cfg.vcs, p.cfg.kind,
                                  p.cfg.arb};
  SpeculativeSwitchAllocator fast(cfg, p.cfg.spec);
  SpeculativeSwitchAllocator ref(cfg, p.cfg.spec);
  ref.set_reference_path(true);
  Rng rng(seed);
  std::vector<SpecSwitchGrant> fast_gnt, ref_gnt;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const double rate = (cycle % 10) * 0.1 + 0.05;
    auto nonspec = random_sa_requests(cfg.ports, cfg.vcs, rate, rng);
    auto spec = random_sa_requests(cfg.ports, cfg.vcs, rate * 0.5, rng);
    if (cycle % 4 == 1) spec.assign(spec.size(), SwitchRequest{});
    if (cycle % 6 == 2) nonspec.assign(nonspec.size(), SwitchRequest{});
    allocate_dense(fast, nonspec, spec, fast_gnt);
    allocate_dense(ref, nonspec, spec, ref_gnt);
    ASSERT_EQ(fast_gnt.size(), ref_gnt.size());
    for (std::size_t i = 0; i < fast_gnt.size(); ++i) {
      ASSERT_EQ(fast_gnt[i].nonspec.vc, ref_gnt[i].nonspec.vc)
          << p.name << " seed " << seed << " cycle " << cycle << " port " << i;
      ASSERT_EQ(fast_gnt[i].nonspec.out_port, ref_gnt[i].nonspec.out_port)
          << p.name << " seed " << seed << " cycle " << cycle << " port " << i;
      ASSERT_EQ(fast_gnt[i].spec.vc, ref_gnt[i].spec.vc)
          << p.name << " seed " << seed << " cycle " << cycle << " port " << i;
      ASSERT_EQ(fast_gnt[i].spec.out_port, ref_gnt[i].spec.out_port)
          << p.name << " seed " << seed << " cycle " << cycle << " port " << i;
    }
    ASSERT_EQ(fast.masked_spec_grants(), ref.masked_spec_grants())
        << p.name << " seed " << seed << " cycle " << cycle;
    ASSERT_EQ(state_bytes(fast), state_bytes(ref))
        << p.name << " seed " << seed << " cycle " << cycle;
  }
}

// Maximum-size points have no reference switch, so their twins run the same
// code; every other family compares its kernel with its byte-loop oracle.
TEST(KernelVsReference, AllSaDesignPointsMatchThroughDenseApi) {
  for (const hw::SaDesignPoint& p : hw::paper_sa_design_points()) {
    for (std::uint64_t seed : {1u, 42u, 9001u}) {
      diff_sa_point(p, seed, 60);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Legal VC request set under the partition, mirroring the quality protocol:
// a requesting input VC targets all C VCs of one legal (message, resource)
// class at a random output port.
std::vector<VcRequest> random_vc_requests(std::size_t ports,
                                          const VcPartition& part, double rate,
                                          Rng& rng) {
  const std::size_t vcs = part.total_vcs();
  std::vector<VcRequest> req(ports * vcs);
  for (std::size_t i = 0; i < req.size(); ++i) {
    if (!rng.next_bool(rate)) continue;
    VcRequest& r = req[i];
    r.valid = true;
    r.out_port = static_cast<int>(rng.next_below(ports));
    const std::size_t vc = i % vcs;
    const auto succ = part.successors(part.resource_class_of(vc));
    const std::size_t r2 = succ[rng.next_below(succ.size())];
    r.vc_mask.assign(vcs, 0);
    const std::size_t base = part.class_base(part.message_class_of(vc), r2);
    for (std::size_t c = 0; c < part.vcs_per_class(); ++c) {
      r.vc_mask[base + c] = 1;
    }
  }
  return req;
}

// VC twin of diff_sa_point: one allocator on its kernel, one on the reference
// path.
void diff_vc(const VcAllocatorConfig& cfg, const std::string& name,
             int cycles) {
  auto fast = make_vc_allocator(cfg);
  auto ref = make_vc_allocator(cfg);
  ref->set_reference_path(true);
  for (std::uint64_t seed : {3u, 77u, 4242u}) {
    Rng rng(seed);
    std::vector<int> fast_gnt, ref_gnt;
    for (int cycle = 0; cycle < cycles; ++cycle) {
      const double rate = (cycle % 10) * 0.1 + 0.05;
      const auto req = random_vc_requests(cfg.ports, cfg.partition, rate, rng);
      fast->allocate(req, fast_gnt);
      ref->allocate(req, ref_gnt);
      ASSERT_EQ(fast_gnt, ref_gnt)
          << name << " seed " << seed << " cycle " << cycle;
    }
  }
}

VcAllocatorConfig vc_config(const hw::VcDesignPoint& p) {
  VcAllocatorConfig cfg;
  cfg.ports = p.cfg.ports;
  cfg.partition = p.cfg.partition;
  cfg.kind = p.cfg.kind;
  cfg.arb = p.cfg.arb;
  cfg.sparse = p.cfg.sparse;
  return cfg;
}

TEST(KernelVsReference, AllVcDesignPointsMatchThroughDenseApi) {
  for (const hw::VcDesignPoint& p : hw::paper_vc_design_points()) {
    diff_vc(vc_config(p), p.name, 60);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---- Empty-cycle replay -------------------------------------------------
// The router skips an allocation stage, or one side of the
// switch-allocation stage, that no request reaches, and every cycle it is
// not called at all, replaying them through advance_priority(). That is
// exact only if k empty allocate_sparse() calls leave an allocator where
// advance_priority(k) leaves it: the same state() bytes and the same grants
// on any request stream that follows. Each case warms both twins on one
// random stream first, so the replay starts from non-reset priorities, and
// makes the empty calls on the kernel and on the reference path.

constexpr std::uint64_t kEmptyRuns[] = {1, 2, 7};

TEST(EmptyCycleReplay, VcAllocatorsOnAllDesignPoints) {
  for (const hw::VcDesignPoint& p : hw::paper_vc_design_points()) {
    const VcAllocatorConfig cfg = vc_config(p);
    for (const bool ref : {false, true}) {
      for (const std::uint64_t k : kEmptyRuns) {
        SCOPED_TRACE(p.name + (ref ? " ref" : " kernel") +
                     " k=" + std::to_string(k));
        auto called = make_vc_allocator(cfg);
        auto replayed = make_vc_allocator(cfg);
        Rng rng(k);
        std::vector<int> gnt_a, gnt_b;
        auto same_stream = [&](int cycles) {
          for (int cycle = 0; cycle < cycles; ++cycle) {
            const auto req = random_vc_requests(cfg.ports, cfg.partition,
                                                0.1 + 0.1 * (cycle % 5), rng);
            called->allocate(req, gnt_a);
            replayed->allocate(req, gnt_b);
            ASSERT_EQ(gnt_a, gnt_b) << "cycle " << cycle;
          }
        };
        same_stream(9);
        called->set_reference_path(ref);
        std::vector<int> empty(called->total(), -1);
        const FastVcRequest none{};
        for (std::uint64_t i = 0; i < k; ++i) {
          called->allocate_sparse(&none, 0, empty);
        }
        ASSERT_EQ(empty, std::vector<int>(called->total(), -1));
        replayed->advance_priority(k);
        ASSERT_EQ(state_bytes(*called), state_bytes(*replayed));
        same_stream(20);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(EmptyCycleReplay, SwitchStagesOnAllDesignPoints) {
  for (const hw::SaDesignPoint& p : hw::paper_sa_design_points()) {
    const SwitchAllocatorConfig cfg{p.cfg.ports, p.cfg.vcs, p.cfg.kind,
                                    p.cfg.arb};
    for (const bool ref : {false, true}) {
      for (const std::uint64_t k : kEmptyRuns) {
        SCOPED_TRACE(p.name + (ref ? " ref" : " kernel") +
                     " k=" + std::to_string(k));
        SpeculativeSwitchAllocator called(cfg, p.cfg.spec);
        SpeculativeSwitchAllocator replayed(cfg, p.cfg.spec);
        Rng rng(k);
        std::vector<SpecSwitchGrant> gnt_a, gnt_b;
        auto same_stream = [&](int cycles) {
          for (int cycle = 0; cycle < cycles; ++cycle) {
            const double rate = 0.1 + 0.1 * (cycle % 5);
            const auto ns = random_sa_requests(cfg.ports, cfg.vcs, rate, rng);
            const auto sp =
                random_sa_requests(cfg.ports, cfg.vcs, rate * 0.5, rng);
            allocate_dense(called, ns, sp, gnt_a);
            allocate_dense(replayed, ns, sp, gnt_b);
            for (std::size_t i = 0; i < cfg.ports; ++i) {
              ASSERT_EQ(gnt_a[i].nonspec.vc, gnt_b[i].nonspec.vc)
                  << "cycle " << cycle << " port " << i;
              ASSERT_EQ(gnt_a[i].spec.vc, gnt_b[i].spec.vc)
                  << "cycle " << cycle << " port " << i;
            }
          }
          ASSERT_EQ(state_bytes(called), state_bytes(replayed));
        };
        same_stream(9);
        called.set_reference_path(ref);
        const std::vector<bits::Word> words(cfg.ports, 0);
        const std::vector<std::uint8_t> out(cfg.ports * cfg.vcs, 0);
        for (std::uint64_t i = 0; i < k; ++i) {
          called.allocate_sparse(words.data(), out.data(), words.data(),
                                 out.data(), gnt_a);
          for (const SpecSwitchGrant& g : gnt_a) ASSERT_FALSE(g.granted());
        }
        replayed.advance_priority(k);
        ASSERT_EQ(state_bytes(called), state_bytes(replayed));
        same_stream(20);
        if (HasFatalFailure()) return;
      }
    }
  }
}

constexpr AllocatorKind kAllFamilies[] = {
    AllocatorKind::kSeparableInputFirst, AllocatorKind::kSeparableOutputFirst,
    AllocatorKind::kWavefront, AllocatorKind::kMaximumSize};

// V = 80 candidate masks do not fit one word: every family's constructor
// aborts naming the shape and the limit, dense and sparse wavefront alike.
TEST(KernelVsReferenceDeathTest, WideVcShapeIsRejected) {
  for (AllocatorKind kind : kAllFamilies) {
    for (bool sparse : {false, true}) {
      VcAllocatorConfig cfg;
      cfg.ports = 5;
      cfg.partition = VcPartition::mesh(2, 40);
      cfg.kind = kind;
      cfg.sparse = sparse;
      ASSERT_EQ(cfg.partition.total_vcs(), 80u);
      EXPECT_DEATH(make_vc_allocator(cfg),
                   "VC allocator with P = 5 ports and V = 80 VCs per port "
                   "exceeds the one-word limit")
          << to_string(kind) << (sparse ? " sparse" : " dense");
    }
  }
}

// P = 65 ports do not fit one word: the same rejection for switch
// allocation.
TEST(KernelVsReferenceDeathTest, WideSwitchShapeIsRejected) {
  for (AllocatorKind kind : kAllFamilies) {
    for (ArbiterKind arb : {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix}) {
      EXPECT_DEATH(make_switch_allocator({65, 2, kind, arb}),
                   "switch allocator with P = 65 ports and V = 2 VCs per port "
                   "exceeds the one-word limit")
          << to_string(kind) << " " << to_string(arb);
    }
  }
}

}  // namespace
}  // namespace nocalloc
