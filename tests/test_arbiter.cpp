#include "arbiter/arbiter.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "arbiter/arbiter_bank.hpp"
#include "common/rng.hpp"

namespace nocalloc {
namespace {

ReqVector make_req(std::size_t size, std::initializer_list<std::size_t> set) {
  ReqVector req(size, 0);
  for (std::size_t i : set) req[i] = 1;
  return req;
}

/// Arbiter k's winner on `req` through the byte loop; at widths up to one
/// word the single-word pick must select the same winner.
int pick(const ArbiterBank& bank, std::size_t k, const ReqVector& req) {
  const int got = bank.pick_bytes(k, req);
  if (bank.width() <= bits::kWordBits) {
    bits::Word word = 0;
    for (std::size_t i = 0; i < req.size(); ++i) {
      if (req[i]) word |= bits::bit(i);
    }
    EXPECT_EQ(bank.pick(k, word), got) << "single-word pick disagrees";
  }
  return got;
}

int pick(const ArbiterBank& bank, std::initializer_list<std::size_t> set) {
  return pick(bank, 0, make_req(bank.width(), set));
}

ArbiterBank round_robin(std::size_t width) {
  return ArbiterBank(ArbiterKind::kRoundRobin, 1, width);
}

ArbiterBank matrix(std::size_t width) {
  return ArbiterBank(ArbiterKind::kMatrix, 1, width);
}

// ---------------------------------------------------------------------------
// Round-robin specifics.

TEST(RoundRobinBank, GrantsFirstRequestAtOrAfterPointer) {
  ArbiterBank arb = round_robin(4);
  EXPECT_EQ(pick(arb, {2, 3}), 2);
  EXPECT_EQ(pick(arb, {0}), 0);
}

TEST(RoundRobinBank, PointerAdvancesPastWinner) {
  ArbiterBank arb = round_robin(4);
  EXPECT_EQ(pick(arb, {1, 2}), 1);
  arb.update(0, 1);
  // The pointer now sits at 2: with everyone requesting, 2 wins.
  EXPECT_EQ(pick(arb, {0, 1, 2, 3}), 2);
  // Same requests again: 1 now has lowest priority, so 2 wins.
  EXPECT_EQ(pick(arb, {1, 2}), 2);
}

TEST(RoundRobinBank, WrapsAround) {
  ArbiterBank arb = round_robin(3);
  arb.update(0, 2);  // pointer -> 0
  EXPECT_EQ(pick(arb, {0, 1, 2}), 0);
  arb.update(0, 1);  // pointer -> 2
  EXPECT_EQ(pick(arb, {0, 1, 2}), 2);
  EXPECT_EQ(pick(arb, {0, 1}), 0);  // wraps past empty slot 2
}

TEST(RoundRobinBank, NoRequestNoGrant) {
  ArbiterBank arb = round_robin(4);
  EXPECT_EQ(pick(arb, {}), -1);
}

TEST(RoundRobinBank, PickIsPure) {
  ArbiterBank arb = round_robin(4);
  EXPECT_EQ(pick(arb, {1, 3}), 1);
  EXPECT_EQ(pick(arb, {1, 3}), 1);
  // The pointer has not moved from 0.
  EXPECT_EQ(pick(arb, {0, 1, 2, 3}), 0);
}

// ---------------------------------------------------------------------------
// Matrix specifics.

TEST(MatrixBank, InitialPriorityIsIndexOrder) {
  ArbiterBank arb = matrix(4);
  EXPECT_EQ(pick(arb, {1, 2, 3}), 1);
}

TEST(MatrixBank, WinnerBecomesLeastRecentlyServed) {
  ArbiterBank arb = matrix(3);
  EXPECT_EQ(pick(arb, {0, 1, 2}), 0);
  arb.update(0, 0);
  EXPECT_EQ(pick(arb, {0, 1, 2}), 1);
  arb.update(0, 1);
  EXPECT_EQ(pick(arb, {0, 1, 2}), 2);
  arb.update(0, 2);
  EXPECT_EQ(pick(arb, {0, 1, 2}), 0);
}

TEST(MatrixBank, ProvidesLrsFairnessForPairs) {
  ArbiterBank arb = matrix(4);
  arb.update(0, 0);  // 0 just served
  // 0 vs 3: 3 has not been served since, so 3 should beat 0.
  EXPECT_EQ(pick(arb, {0, 3}), 3);
}

TEST(MatrixBank, PriorityRelationStaysTotalOrder) {
  // The winner-loses-all update must preserve the total order, which in
  // turn guarantees a winner exists for every non-empty request set.
  ArbiterBank arb = matrix(5);
  Rng rng(9);
  for (int step = 0; step < 200; ++step) {
    ReqVector req(5, 0);
    bool any = false;
    for (auto& r : req) {
      r = rng.next_bool(0.5) ? 1 : 0;
      any = any || r;
    }
    const int winner = pick(arb, 0, req);
    if (any) {
      ASSERT_GE(winner, 0);
      ASSERT_TRUE(req[static_cast<std::size_t>(winner)]);
      arb.update(0, winner);
    } else {
      ASSERT_EQ(winner, -1);
    }
  }
}

TEST(MatrixBank, ResetRestoresInitialOrder) {
  ArbiterBank arb = matrix(3);
  arb.update(0, 0);
  arb.reset();
  EXPECT_EQ(pick(arb, {0, 1}), 0);
}

// ---------------------------------------------------------------------------
// Tree arbitration over a top/local bank pair (one tree).

struct Tree {
  ArbiterBank top;    // one G-wide arbiter
  ArbiterBank local;  // G arbiters, S wide

  Tree(ArbiterKind kind, std::size_t groups, std::size_t group_size)
      : top(kind, 1, groups), local(kind, groups, group_size) {}

  /// tree_pick_bytes, checked against the single-word tree_pick.
  int pick(std::initializer_list<std::size_t> set) const {
    const std::size_t s = local.width();
    const ReqVector req = make_req(top.width() * s, set);
    const int got = tree_pick_bytes(top, local, 0, req);
    std::vector<bits::Word> group_req(top.width(), 0);
    bits::Word groups_req = 0;
    for (std::size_t i : set) {
      group_req[i / s] |= bits::bit(i % s);
      groups_req |= bits::bit(i / s);
    }
    EXPECT_EQ(tree_pick(top, local, 0, groups_req, group_req.data()), got);
    return got;
  }

  void update(std::size_t winner) { tree_update(top, local, 0, winner); }
};

TEST(TreeBanks, CombinesGroupAndLocalDecision) {
  Tree arb(ArbiterKind::kRoundRobin, 2, 3);  // 2 groups of 3
  // Requests only in group 1.
  EXPECT_EQ(arb.pick({4, 5}), 4);
  EXPECT_EQ(arb.pick({}), -1);
}

TEST(TreeBanks, UpdateOnlyTouchesWinningGroup) {
  Tree arb(ArbiterKind::kRoundRobin, 2, 2);
  EXPECT_EQ(arb.pick({0, 1, 2, 3}), 0);
  arb.update(0);
  // Group 0's local arbiter advanced (and the top arbiter moved to group 1),
  // but group 1's local arbiter still prefers its index 0 (global 2).
  EXPECT_EQ(arb.pick({2, 3}), 2);
  // Within group 0, input 1 now has priority over input 0.
  arb.update(2);
  EXPECT_EQ(arb.pick({0, 1}), 1);
}

TEST(TreeBanksDeathTest, RejectsMismatchedWidth) {
  Tree arb(ArbiterKind::kMatrix, 2, 2);
  EXPECT_DEATH(tree_pick_bytes(arb.top, arb.local, 0, ReqVector(3, 1)),
               "check failed");
}

// ---------------------------------------------------------------------------
// Bank width limits and state layout.

TEST(ArbiterBankDeathTest, RejectsWidthOutsideOneByte) {
  for (ArbiterKind kind : {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix}) {
    EXPECT_DEATH(ArbiterBank(kind, 1, 257),
                 "arbiter width 257 is outside 1..256");
    EXPECT_DEATH(ArbiterBank(kind, 1, 0), "arbiter width 0 is outside 1..256");
  }
}

// A matrix arbiter writes count(width * word_count(width)) and then its row
// words; a round-robin arbiter one u64 pointer. Both load back exactly.
TEST(ArbiterBank, StateRoundTripsAtEveryWidthClass) {
  for (ArbiterKind kind : {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix}) {
    for (std::size_t n : {1u, 64u, 65u, 100u, 256u}) {
      ArbiterBank bank(kind, 2, n);
      Rng rng(n);
      for (int round = 0; round < 50; ++round) {
        bank.update(rng.next_below(2), static_cast<int>(rng.next_below(n)));
      }
      std::vector<std::uint8_t> bytes;
      StateArchive saving = StateArchive::saving_to(bytes);
      bank.state(saving);
      const std::size_t per_arbiter =
          kind == ArbiterKind::kRoundRobin
              ? 8
              : 8 + 8 * n * bits::word_count(n);
      ASSERT_EQ(bytes.size(), 2 * per_arbiter) << to_string(kind) << n;

      ArbiterBank twin(kind, 2, n);
      StateArchive loading = StateArchive::loading_from(bytes);
      twin.state(loading);
      EXPECT_EQ(loading.remaining(), 0u);
      for (int round = 0; round < 50; ++round) {
        const std::size_t k = rng.next_below(2);
        ReqVector req(n, 0);
        for (auto& r : req) r = rng.next_bool(0.3) ? 1 : 0;
        const int want = pick(bank, k, req);
        ASSERT_EQ(pick(twin, k, req), want) << to_string(kind) << n;
        if (want >= 0) {
          bank.update(k, want);
          twin.update(k, want);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Properties common to all arbiter architectures, up to the widest bank.

struct ArbiterParam {
  ArbiterKind kind;
  std::size_t size;
};

class ArbiterPropertyTest : public ::testing::TestWithParam<ArbiterParam> {
 protected:
  ArbiterBank make() const { return ArbiterBank(GetParam().kind, 1, n()); }
  std::size_t n() const { return GetParam().size; }
};

TEST_P(ArbiterPropertyTest, GrantImpliesRequest) {
  ArbiterBank arb = make();
  Rng rng(1);
  for (int step = 0; step < 300; ++step) {
    ReqVector req(n(), 0);
    for (auto& r : req) r = rng.next_bool(0.4) ? 1 : 0;
    const int g = pick(arb, 0, req);
    bool any = false;
    for (auto r : req) any = any || r;
    if (any) {
      ASSERT_GE(g, 0);
      ASSERT_LT(static_cast<std::size_t>(g), n());
      ASSERT_TRUE(req[static_cast<std::size_t>(g)]);
      arb.update(0, g);
    } else {
      ASSERT_EQ(g, -1);
    }
  }
}

TEST_P(ArbiterPropertyTest, SingleRequesterAlwaysWins) {
  ArbiterBank arb = make();
  for (std::size_t i = 0; i < n(); ++i) {
    ReqVector req(n(), 0);
    req[i] = 1;
    EXPECT_EQ(pick(arb, 0, req), static_cast<int>(i));
    arb.update(0, static_cast<int>(i));
  }
}

TEST_P(ArbiterPropertyTest, PersistentRequesterServedWithinNRounds) {
  // Weak fairness: with all inputs requesting continuously and updates
  // applied, every input must win at least once in any window of N rounds.
  ArbiterBank arb = make();
  const ReqVector req(n(), 1);
  std::map<int, int> wins;
  for (std::size_t round = 0; round < 3 * n(); ++round) {
    const int g = pick(arb, 0, req);
    ASSERT_GE(g, 0);
    ++wins[g];
    arb.update(0, g);
  }
  for (std::size_t i = 0; i < n(); ++i) {
    EXPECT_GE(wins[static_cast<int>(i)], 1) << "input " << i << " starved";
  }
}

TEST_P(ArbiterPropertyTest, ResetIsIdempotent) {
  ArbiterBank arb = make();
  const ReqVector req(n(), 1);
  const int first = pick(arb, 0, req);
  arb.update(0, first);
  arb.reset();
  EXPECT_EQ(pick(arb, 0, req), first);
  arb.reset();
  EXPECT_EQ(pick(arb, 0, req), first);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSizes, ArbiterPropertyTest,
    ::testing::Values(ArbiterParam{ArbiterKind::kRoundRobin, 1},
                      ArbiterParam{ArbiterKind::kRoundRobin, 2},
                      ArbiterParam{ArbiterKind::kRoundRobin, 5},
                      ArbiterParam{ArbiterKind::kRoundRobin, 16},
                      ArbiterParam{ArbiterKind::kRoundRobin, 65},
                      ArbiterParam{ArbiterKind::kRoundRobin, 100},
                      ArbiterParam{ArbiterKind::kRoundRobin, 256},
                      ArbiterParam{ArbiterKind::kMatrix, 1},
                      ArbiterParam{ArbiterKind::kMatrix, 2},
                      ArbiterParam{ArbiterKind::kMatrix, 5},
                      ArbiterParam{ArbiterKind::kMatrix, 16},
                      ArbiterParam{ArbiterKind::kMatrix, 65},
                      ArbiterParam{ArbiterKind::kMatrix, 100},
                      ArbiterParam{ArbiterKind::kMatrix, 256}),
    [](const ::testing::TestParamInfo<ArbiterParam>& info) {
      return to_string(info.param.kind) + "_" +
             std::to_string(info.param.size);
    });

TEST(ArbiterFactory, NamesMatchPaperLabels) {
  EXPECT_EQ(to_string(ArbiterKind::kRoundRobin), "rr");
  EXPECT_EQ(to_string(ArbiterKind::kMatrix), "m");
}

}  // namespace
}  // namespace nocalloc
