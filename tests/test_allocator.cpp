#include "alloc/allocator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc/incremental_max_allocator.hpp"
#include "alloc/max_size_allocator.hpp"
#include "alloc/multi_iteration_allocator.hpp"
#include "alloc/separable_allocator.hpp"
#include "alloc/wavefront_allocator.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "sweep/snapshot_io.hpp"

namespace nocalloc {
namespace {

BitMatrix random_requests(std::size_t rows, std::size_t cols, double density,
                          Rng& rng) {
  BitMatrix req(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.next_bool(density)) req.set(r, c);
    }
  }
  return req;
}

bool is_maximal(const BitMatrix& req, const BitMatrix& gnt) {
  // A matching is maximal iff no requested pair has both row and column free.
  for (std::size_t r = 0; r < req.rows(); ++r) {
    if (gnt.row_any(r)) continue;
    for (std::size_t c = 0; c < req.cols(); ++c) {
      if (req.get(r, c) && !gnt.col_any(c)) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Maximum-size reference.

TEST(MaxSizeAllocator, PerfectMatchingOnIdentity) {
  BitMatrix req(4, 4);
  for (std::size_t i = 0; i < 4; ++i) req.set(i, i);
  EXPECT_EQ(MaxSizeAllocator::max_matching_size(req), 4u);
}

TEST(MaxSizeAllocator, KnownAugmentingPathCase) {
  // 0->{0}, 1->{0,1}: greedy that matches 1->0 first needs augmentation.
  BitMatrix req(2, 2);
  req.set(0, 0);
  req.set(1, 0);
  req.set(1, 1);
  EXPECT_EQ(MaxSizeAllocator::max_matching_size(req), 2u);
}

TEST(MaxSizeAllocator, EmptyRequestsYieldEmptyMatching) {
  BitMatrix req(3, 3);
  BitMatrix gnt;
  MaxSizeAllocator::max_matching(req, gnt);
  EXPECT_EQ(gnt.count(), 0u);
}

TEST(MaxSizeAllocator, MatchesBruteForceOnSmallMatrices) {
  // Exhaustive check on all 512 3x3 request matrices against a brute-force
  // maximum (permanent-style search over row assignments).
  for (unsigned bits = 0; bits < 512; ++bits) {
    BitMatrix req(3, 3);
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < 3; ++c) {
        if (bits & (1u << (r * 3 + c))) req.set(r, c);
      }
    }
    // Brute force: try all 3! column permutations plus partial assignments.
    std::size_t best = 0;
    int perm[3];
    for (perm[0] = -1; perm[0] < 3; ++perm[0]) {
      for (perm[1] = -1; perm[1] < 3; ++perm[1]) {
        for (perm[2] = -1; perm[2] < 3; ++perm[2]) {
          if (perm[0] >= 0 && perm[0] == perm[1]) continue;
          if (perm[1] >= 0 && perm[1] == perm[2]) continue;
          if (perm[0] >= 0 && perm[0] == perm[2]) continue;
          std::size_t size = 0;
          bool valid = true;
          for (std::size_t r = 0; r < 3; ++r) {
            if (perm[r] < 0) continue;
            if (!req.get(r, static_cast<std::size_t>(perm[r]))) {
              valid = false;
              break;
            }
            ++size;
          }
          if (valid) best = std::max(best, size);
        }
      }
    }
    ASSERT_EQ(MaxSizeAllocator::max_matching_size(req), best)
        << "request matrix:\n"
        << req.to_string();
  }
}

TEST(MaxSizeAllocator, GrantMatrixIsValidMatching) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    BitMatrix req = random_requests(8, 6, 0.3, rng);
    BitMatrix gnt;
    MaxSizeAllocator::max_matching(req, gnt);
    EXPECT_TRUE(gnt.is_matching());
    EXPECT_TRUE(gnt.is_subset_of(req));
    EXPECT_EQ(gnt.count(), MaxSizeAllocator::max_matching_size(req));
  }
}

// Kuhn's augmenting-path algorithm: one DFS per row over byte lookups, an
// independent maximum-matching count for the Hopcroft-Karp checks below.
std::size_t kuhn_matching_size(const BitMatrix& req) {
  std::vector<int> match_col(req.cols(), -1);
  std::vector<char> seen;
  std::function<bool(std::size_t)> augment = [&](std::size_t r) {
    for (std::size_t c = 0; c < req.cols(); ++c) {
      if (!req.get(r, c) || seen[c]) continue;
      seen[c] = 1;
      if (match_col[c] < 0 ||
          augment(static_cast<std::size_t>(match_col[c]))) {
        match_col[c] = static_cast<int>(r);
        return true;
      }
    }
    return false;
  };
  std::size_t size = 0;
  for (std::size_t r = 0; r < req.rows(); ++r) {
    seen.assign(req.cols(), 0);
    if (augment(r)) ++size;
  }
  return size;
}

TEST(MaxSizeAllocator, MatchesKuhnOnMultiWordRows) {
  // Rows of 130 and 160 columns span three words, so the row scans cross
  // word boundaries; sparse densities leave rows unmatched and force long
  // augmenting paths.
  Rng rng(17);
  MaxSizeAllocator member(160, 160);
  for (const auto& [rows, cols] :
       {std::pair{std::size_t{70}, std::size_t{130}},
        std::pair{std::size_t{160}, std::size_t{160}}}) {
    for (double density : {0.005, 0.01, 0.03, 0.1, 0.5}) {
      for (int trial = 0; trial < 5; ++trial) {
        const BitMatrix req = random_requests(rows, cols, density, rng);
        const std::size_t expected = kuhn_matching_size(req);
        BitMatrix gnt;
        MaxSizeAllocator::max_matching(req, gnt);
        ASSERT_EQ(MaxSizeAllocator::max_matching_size(req), expected)
            << rows << "x" << cols << " density " << density;
        EXPECT_TRUE(gnt.is_matching());
        EXPECT_TRUE(gnt.is_subset_of(req));
        EXPECT_EQ(gnt.count(), expected);
        if (rows == 160) {
          BitMatrix member_gnt;
          member.allocate(req, member_gnt);
          EXPECT_EQ(member_gnt, gnt);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wavefront specifics.

TEST(WavefrontAllocator, DiagonalRotatesEachInvocation) {
  WavefrontAllocator wf(4, 4);
  BitMatrix req(4, 4), gnt;
  EXPECT_EQ(wf.diagonal(), 0u);
  wf.allocate(req, gnt);
  EXPECT_EQ(wf.diagonal(), 1u);
  for (int i = 0; i < 3; ++i) wf.allocate(req, gnt);
  EXPECT_EQ(wf.diagonal(), 0u);
}

TEST(WavefrontAllocator, AlwaysMaximal) {
  Rng rng(5);
  WavefrontAllocator wf(6, 6);
  for (int trial = 0; trial < 200; ++trial) {
    BitMatrix req = random_requests(6, 6, 0.35, rng);
    BitMatrix gnt;
    wf.allocate(req, gnt);
    ASSERT_TRUE(gnt.is_matching());
    ASSERT_TRUE(gnt.is_subset_of(req));
    ASSERT_TRUE(is_maximal(req, gnt)) << req.to_string() << gnt.to_string();
  }
}

TEST(WavefrontAllocator, PriorityDiagonalAlwaysGranted) {
  // Requests on the active priority diagonal must win unconditionally.
  WavefrontAllocator wf(4, 4);
  BitMatrix req(4, 4);
  // Fill the whole matrix so every diagonal competes.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) req.set(i, j);
  }
  BitMatrix gnt;
  wf.allocate(req, gnt);  // starts at diagonal 0
  // Diagonal 0 holds (0,0), (1,3), (2,2), (3,1).
  EXPECT_TRUE(gnt.get(0, 0));
  EXPECT_TRUE(gnt.get(1, 3));
  EXPECT_TRUE(gnt.get(2, 2));
  EXPECT_TRUE(gnt.get(3, 1));
}

TEST(WavefrontAllocator, HandlesRectangularShapes) {
  Rng rng(7);
  WavefrontAllocator wide(3, 7);
  WavefrontAllocator tall(7, 3);
  for (int trial = 0; trial < 100; ++trial) {
    BitMatrix req_w = random_requests(3, 7, 0.4, rng);
    BitMatrix gnt;
    wide.allocate(req_w, gnt);
    ASSERT_TRUE(gnt.is_matching());
    ASSERT_TRUE(gnt.is_subset_of(req_w));
    ASSERT_TRUE(is_maximal(req_w, gnt));

    BitMatrix req_t = random_requests(7, 3, 0.4, rng);
    tall.allocate(req_t, gnt);
    ASSERT_TRUE(gnt.is_matching());
    ASSERT_TRUE(gnt.is_subset_of(req_t));
    ASSERT_TRUE(is_maximal(req_t, gnt));
  }
}

TEST(WavefrontAllocator, FullMatrixYieldsPerfectMatching) {
  WavefrontAllocator wf(5, 5);
  BitMatrix req(5, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) req.set(i, j);
  }
  BitMatrix gnt;
  wf.allocate(req, gnt);
  EXPECT_EQ(gnt.count(), 5u);
}

// allocate() runs the sparse kernel over the set cells of the dense matrix;
// allocate_from_diagonal is its byte-loop oracle. Shapes cover square,
// rectangular (padded) and multi-word arrays; rates sweep sparse to dense.
TEST(WavefrontAllocator, DenseAllocateMatchesDiagonalOracle) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {4, 7}, {7, 4}, {10, 10}, {64, 64}, {65, 65}, {3, 130},
      {160, 160}};
  Rng rng(61);
  for (const auto& [rows, cols] : shapes) {
    WavefrontAllocator wf(rows, cols);
    BitMatrix gnt, oracle;
    for (int cycle = 0; cycle < 60; ++cycle) {
      const double rate = 0.02 + 0.9 * (cycle % 11) / 10.0;
      const BitMatrix req = random_requests(rows, cols, rate, rng);
      WavefrontAllocator::allocate_from_diagonal(req, wf.diagonal(), oracle);
      wf.allocate(req, gnt);
      ASSERT_EQ(gnt, oracle) << rows << "x" << cols << " cycle " << cycle;
    }
  }
}

// The kernel contract dense allocate() cannot reach: cells requested in any
// order, each possibly several times (as SaWavefront does when several VCs
// at a port want one output). Every fifth cycle is empty, which must grant
// nothing and rotate like advance_priority(1).
TEST(WavefrontAllocator, RequestedCellsMatchDiagonalOracle) {
  Rng rng(62);
  for (const std::size_t n : {1, 10, 64, 80, 130}) {
    WavefrontAllocator wf(n, n);
    WavefrontAllocator twin(n, n);
    BitMatrix oracle;
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    for (int cycle = 0; cycle < 60; ++cycle) {
      const double rate = 0.02 + 0.88 * (cycle % 9) / 8.0;
      const BitMatrix req = cycle % 5 == 4
                                ? BitMatrix(n, n)
                                : random_requests(n, n, rate, rng);
      cells.clear();
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          if (!req.get(r, c)) continue;
          const std::uint64_t copies = 1 + rng.next_below(3);
          for (std::uint64_t k = 0; k < copies; ++k) cells.emplace_back(r, c);
        }
      }
      for (std::size_t i = cells.size(); i > 1; --i) {
        std::swap(cells[i - 1], cells[rng.next_below(i)]);
      }

      ASSERT_EQ(wf.diagonal(), twin.diagonal());
      WavefrontAllocator::allocate_from_diagonal(req, wf.diagonal(), oracle);
      for (const auto& [r, c] : cells) wf.request(r, c);
      BitMatrix gnt(n, n);
      std::size_t grants = 0;
      wf.grant_requested([&](std::size_t r, std::size_t c) {
        gnt.set(r, c);
        ++grants;
      });
      twin.advance_priority(1);
      ASSERT_EQ(gnt, oracle) << "n " << n << " cycle " << cycle;
      ASSERT_EQ(grants, oracle.count()) << "n " << n << " cycle " << cycle;
      ASSERT_EQ(wf.diagonal(), twin.diagonal())
          << "n " << n << " cycle " << cycle;
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-iteration wrapper.

TEST(MultiIterationAllocator, ConvergesToMaximalMatching) {
  Rng rng(11);
  // Enough iterations always produce a maximal matching from a separable
  // core (each pass grants at least one request if any grantable remains).
  MultiIterationAllocator alloc(
      make_allocator(AllocatorKind::kSeparableInputFirst, 8, 8,
                     ArbiterKind::kRoundRobin),
      8);
  for (int trial = 0; trial < 100; ++trial) {
    BitMatrix req = random_requests(8, 8, 0.3, rng);
    BitMatrix gnt;
    alloc.allocate(req, gnt);
    ASSERT_TRUE(gnt.is_matching());
    ASSERT_TRUE(gnt.is_subset_of(req));
    ASSERT_TRUE(is_maximal(req, gnt));
  }
}

TEST(MultiIterationAllocator, MoreIterationsNeverGrantFewer) {
  Rng rng_a(13), rng_b(13);
  MultiIterationAllocator one(
      make_allocator(AllocatorKind::kSeparableOutputFirst, 8, 8), 1);
  MultiIterationAllocator four(
      make_allocator(AllocatorKind::kSeparableOutputFirst, 8, 8), 4);
  std::uint64_t grants_one = 0, grants_four = 0;
  for (int trial = 0; trial < 200; ++trial) {
    BitMatrix req = random_requests(8, 8, 0.4, rng_a);
    BitMatrix gnt;
    one.allocate(req, gnt);
    grants_one += gnt.count();
    four.allocate(req, gnt);
    grants_four += gnt.count();
  }
  EXPECT_GE(grants_four, grants_one);
}

// ---------------------------------------------------------------------------
// Incremental augmenting-path allocator (Sec. 2.3).

TEST(IncrementalMaxAllocator, ValidMatchingsEveryCycle) {
  IncrementalMaxAllocator alloc(8, 8, 2);
  Rng rng(41);
  BitMatrix req(8, 8), gnt;
  for (int cycle = 0; cycle < 300; ++cycle) {
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t j = 0; j < 8; ++j) {
        if (rng.next_bool(0.1)) req.set(i, j, rng.next_bool(0.4));
      }
    }
    alloc.allocate(req, gnt);
    ASSERT_TRUE(gnt.is_matching());
    ASSERT_TRUE(gnt.is_subset_of(req));
  }
}

TEST(IncrementalMaxAllocator, ConvergesOnStaticRequests) {
  // With a fixed request matrix, one augmentation per cycle reaches the
  // maximum matching after at most `inputs` cycles.
  Rng rng(43);
  BitMatrix req = random_requests(8, 8, 0.35, rng);
  const std::size_t maximum = MaxSizeAllocator::max_matching_size(req);
  IncrementalMaxAllocator alloc(8, 8, 1);
  BitMatrix gnt;
  for (int cycle = 0; cycle < 8; ++cycle) alloc.allocate(req, gnt);
  EXPECT_EQ(gnt.count(), maximum);
}

TEST(IncrementalMaxAllocator, MatchingSizeNeverShrinksOnStaticRequests) {
  Rng rng(47);
  BitMatrix req = random_requests(10, 10, 0.3, rng);
  IncrementalMaxAllocator alloc(10, 10, 1);
  BitMatrix gnt;
  std::size_t prev = 0;
  for (int cycle = 0; cycle < 12; ++cycle) {
    alloc.allocate(req, gnt);
    ASSERT_GE(gnt.count(), prev);
    prev = gnt.count();
  }
}

TEST(IncrementalMaxAllocator, DropsGrantsWhoseRequestVanished) {
  IncrementalMaxAllocator alloc(4, 4, 4);
  BitMatrix req(4, 4), gnt;
  req.set(0, 0);
  req.set(1, 1);
  alloc.allocate(req, gnt);
  EXPECT_EQ(gnt.count(), 2u);
  req.set(0, 0, false);  // input 0 no longer requests its matched output
  alloc.allocate(req, gnt);
  EXPECT_FALSE(gnt.get(0, 0));
  EXPECT_TRUE(gnt.get(1, 1));
}

TEST(IncrementalMaxAllocator, ResetClearsCarriedMatching) {
  IncrementalMaxAllocator alloc(4, 4, 1);
  BitMatrix req(4, 4), gnt;
  for (std::size_t i = 0; i < 4; ++i) req.set(i, i);
  for (int c = 0; c < 4; ++c) alloc.allocate(req, gnt);
  EXPECT_EQ(gnt.count(), 4u);
  alloc.reset();
  alloc.allocate(req, gnt);
  EXPECT_EQ(gnt.count(), 1u);  // one augmentation from scratch
}

TEST(IncrementalMaxAllocator, MoreStepsConvergeFaster) {
  Rng rng_a(51), rng_b(51);
  IncrementalMaxAllocator one(10, 10, 1);
  IncrementalMaxAllocator four(10, 10, 4);
  BitMatrix req_a = random_requests(10, 10, 0.4, rng_a);
  BitMatrix req_b = random_requests(10, 10, 0.4, rng_b);
  ASSERT_EQ(req_a, req_b);
  BitMatrix ga, gb;
  one.allocate(req_a, ga);
  four.allocate(req_b, gb);
  EXPECT_GE(gb.count(), ga.count());
}

// ---------------------------------------------------------------------------
// Properties common to all allocator architectures.

struct AllocParam {
  AllocatorKind kind;
  ArbiterKind arb;
  std::size_t inputs;
  std::size_t outputs;
};

class AllocatorPropertyTest : public ::testing::TestWithParam<AllocParam> {};

TEST_P(AllocatorPropertyTest, GrantsAreAlwaysValidMatchings) {
  const AllocParam& p = GetParam();
  auto alloc = make_allocator(p.kind, p.inputs, p.outputs, p.arb);
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    BitMatrix req = random_requests(p.inputs, p.outputs, 0.35, rng);
    BitMatrix gnt;
    alloc->allocate(req, gnt);
    ASSERT_TRUE(gnt.is_matching());
    ASSERT_TRUE(gnt.is_subset_of(req));
  }
}

TEST_P(AllocatorPropertyTest, NonConflictingRequestsAllGranted) {
  // A request matrix that is itself a matching must be granted in full by
  // every architecture (Sec. 4.3.2: "all three allocator types are
  // guaranteed to grant non-conflicting requests").
  const AllocParam& p = GetParam();
  auto alloc = make_allocator(p.kind, p.inputs, p.outputs, p.arb);
  Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    BitMatrix req(p.inputs, p.outputs);
    // Random partial permutation.
    std::vector<std::size_t> cols(p.outputs);
    for (std::size_t c = 0; c < p.outputs; ++c) cols[c] = c;
    for (std::size_t i = 0; i < p.inputs && !cols.empty(); ++i) {
      if (!rng.next_bool(0.6)) continue;
      const std::size_t pick = rng.next_below(cols.size());
      req.set(i, cols[pick]);
      cols.erase(cols.begin() + static_cast<long>(pick));
    }
    BitMatrix gnt;
    alloc->allocate(req, gnt);
    ASSERT_EQ(gnt, req);
  }
}

TEST_P(AllocatorPropertyTest, EmptyRequestsProduceEmptyGrants) {
  const AllocParam& p = GetParam();
  auto alloc = make_allocator(p.kind, p.inputs, p.outputs, p.arb);
  BitMatrix req(p.inputs, p.outputs), gnt;
  alloc->allocate(req, gnt);
  EXPECT_EQ(gnt.count(), 0u);
}

TEST_P(AllocatorPropertyTest, NoStarvationUnderFullLoad) {
  // With every (i, o) requested every cycle, each input must be served
  // within a bounded number of rounds by all architectures.
  const AllocParam& p = GetParam();
  auto alloc = make_allocator(p.kind, p.inputs, p.outputs, p.arb);
  BitMatrix req(p.inputs, p.outputs);
  for (std::size_t i = 0; i < p.inputs; ++i) {
    for (std::size_t o = 0; o < p.outputs; ++o) req.set(i, o);
  }
  std::vector<int> wins(p.inputs, 0);
  const std::size_t rounds = 4 * p.inputs * p.outputs;
  BitMatrix gnt;
  for (std::size_t r = 0; r < rounds; ++r) {
    alloc->allocate(req, gnt);
    for (std::size_t i = 0; i < p.inputs; ++i) {
      if (gnt.row_any(i)) ++wins[i];
    }
  }
  for (std::size_t i = 0; i < p.inputs; ++i) {
    EXPECT_GT(wins[i], 0) << "input " << i << " starved";
  }
}

TEST_P(AllocatorPropertyTest, ResetRestoresDeterministicBehaviour) {
  const AllocParam& p = GetParam();
  auto alloc = make_allocator(p.kind, p.inputs, p.outputs, p.arb);
  Rng rng(23);
  BitMatrix req = random_requests(p.inputs, p.outputs, 0.5, rng);
  BitMatrix first, again;
  alloc->allocate(req, first);
  alloc->reset();
  alloc->allocate(req, again);
  EXPECT_EQ(first, again);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, AllocatorPropertyTest,
    ::testing::Values(
        AllocParam{AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin, 5, 5},
        AllocParam{AllocatorKind::kSeparableInputFirst, ArbiterKind::kMatrix, 5, 5},
        AllocParam{AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin, 10, 10},
        AllocParam{AllocatorKind::kSeparableOutputFirst, ArbiterKind::kRoundRobin, 5, 5},
        AllocParam{AllocatorKind::kSeparableOutputFirst, ArbiterKind::kMatrix, 5, 5},
        AllocParam{AllocatorKind::kSeparableOutputFirst, ArbiterKind::kRoundRobin, 10, 10},
        AllocParam{AllocatorKind::kWavefront, ArbiterKind::kRoundRobin, 5, 5},
        AllocParam{AllocatorKind::kWavefront, ArbiterKind::kRoundRobin, 10, 10},
        AllocParam{AllocatorKind::kWavefront, ArbiterKind::kRoundRobin, 4, 7},
        AllocParam{AllocatorKind::kMaximumSize, ArbiterKind::kRoundRobin, 5, 5},
        AllocParam{AllocatorKind::kMaximumSize, ArbiterKind::kRoundRobin, 10, 10}),
    [](const ::testing::TestParamInfo<AllocParam>& info) {
      return to_string(info.param.kind) + "_" + to_string(info.param.arb) +
             "_" + std::to_string(info.param.inputs) + "x" +
             std::to_string(info.param.outputs);
    });

// ---------------------------------------------------------------------------
// State contract (allocator.hpp): state() carries every piece of priority
// state, and advance_priority(c) equals c empty allocate() calls.

template <AllocatorKind Kind, ArbiterKind Arb>
struct Generic {
  static std::string name() { return to_string(Kind) + "_" + to_string(Arb); }
  static std::unique_ptr<Allocator> make(std::size_t in, std::size_t out) {
    return make_allocator(Kind, in, out, Arb);
  }
};

struct MultiIterationOfWavefront {
  static std::string name() { return "multi3_wf"; }
  static std::unique_ptr<Allocator> make(std::size_t in, std::size_t out) {
    return std::make_unique<MultiIterationAllocator>(
        make_allocator(AllocatorKind::kWavefront, in, out), 3);
  }
};

struct MultiIterationOfMatrixSeparable {
  static std::string name() { return "multi2_sep_of_m"; }
  static std::unique_ptr<Allocator> make(std::size_t in, std::size_t out) {
    return std::make_unique<MultiIterationAllocator>(
        make_allocator(AllocatorKind::kSeparableOutputFirst, in, out,
                       ArbiterKind::kMatrix),
        2);
  }
};

struct IncrementalMax {
  static std::string name() { return "incremental_max"; }
  static std::unique_ptr<Allocator> make(std::size_t in, std::size_t out) {
    return std::make_unique<IncrementalMaxAllocator>(in, out, 1);
  }
};

template <typename Factory>
class AllocatorStateTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kIn = 5;
  static constexpr std::size_t kOut = 7;

  static std::unique_ptr<Allocator> make() { return Factory::make(kIn, kOut); }

  // Redraws a fifth of the cells, so requests change slowly and the
  // incremental allocator's carried matching stays partly valid.
  static void perturb(BitMatrix& req, Rng& rng) {
    for (std::size_t i = 0; i < kIn; ++i) {
      for (std::size_t j = 0; j < kOut; ++j) {
        if (rng.next_bool(0.2)) req.set(i, j, rng.next_bool(0.45));
      }
    }
  }

  static void drive(Allocator& a, BitMatrix& req, Rng& rng, int cycles) {
    BitMatrix gnt;
    for (int c = 0; c < cycles; ++c) {
      perturb(req, rng);
      a.allocate(req, gnt);
    }
  }

  // Both allocators must grant identically on a shared request stream.
  static void expect_same_grants(Allocator& a, Allocator& b, Rng& rng,
                                 const std::string& what) {
    BitMatrix req(kIn, kOut), ga, gb;
    for (int c = 0; c < 40; ++c) {
      perturb(req, rng);
      a.allocate(req, ga);
      b.allocate(req, gb);
      ASSERT_EQ(ga, gb) << what << " cycle " << c;
    }
  }
};

using StatefulFactories = ::testing::Types<
    Generic<AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin>,
    Generic<AllocatorKind::kSeparableInputFirst, ArbiterKind::kMatrix>,
    Generic<AllocatorKind::kSeparableOutputFirst, ArbiterKind::kRoundRobin>,
    Generic<AllocatorKind::kSeparableOutputFirst, ArbiterKind::kMatrix>,
    Generic<AllocatorKind::kWavefront, ArbiterKind::kRoundRobin>,
    Generic<AllocatorKind::kMaximumSize, ArbiterKind::kRoundRobin>,
    MultiIterationOfWavefront, MultiIterationOfMatrixSeparable,
    IncrementalMax>;
struct FactoryName {
  template <typename Factory>
  static std::string GetName(int) {
    return Factory::name();
  }
};
TYPED_TEST_SUITE(AllocatorStateTest, StatefulFactories, FactoryName);

TYPED_TEST(AllocatorStateTest, SaveLoadTwinGrantsIdentically) {
  auto original = TestFixture::make();
  auto twin = TestFixture::make();
  Rng history(71), other(72);
  BitMatrix req(TestFixture::kIn, TestFixture::kOut);
  TestFixture::drive(*original, req, history, 23);
  // Give the twin a different history, so the load must overwrite it.
  BitMatrix other_req(TestFixture::kIn, TestFixture::kOut);
  TestFixture::drive(*twin, other_req, other, 10);

  std::vector<std::uint8_t> bytes;
  StateArchive saving = StateArchive::saving_to(bytes);
  original->state(saving);
  StateArchive loading = StateArchive::loading_from(bytes);
  twin->state(loading);
  EXPECT_EQ(loading.remaining(), 0u);

  Rng future(73);
  TestFixture::expect_same_grants(*original, *twin, future, "after load");
}

TYPED_TEST(AllocatorStateTest, AdvancePriorityEqualsEmptyCalls) {
  for (std::uint64_t k : {0u, 1u, 2u, 6u, 13u}) {
    auto skipped = TestFixture::make();
    auto stepped = TestFixture::make();
    Rng history(81);
    BitMatrix req(TestFixture::kIn, TestFixture::kOut);
    TestFixture::drive(*skipped, req, history, 17);
    Rng replay(81);
    BitMatrix replay_req(TestFixture::kIn, TestFixture::kOut);
    TestFixture::drive(*stepped, replay_req, replay, 17);

    skipped->advance_priority(k);
    const BitMatrix empty(TestFixture::kIn, TestFixture::kOut);
    BitMatrix gnt;
    for (std::uint64_t c = 0; c < k; ++c) stepped->allocate(empty, gnt);

    Rng future(83);
    TestFixture::expect_same_grants(*skipped, *stepped, future,
                                    "k=" + std::to_string(k));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Separable allocators above one word: every arbiter is wider than 64
// requesters, so picks scan several words and matrix rows span several
// words. The grant sequence over a fixed random request stream and the
// final state() bytes are pinned by FNV-1a hash, and a twin loaded from the
// state saved mid-stream must grant identically from there on.

struct WideSeparableParam {
  AllocatorKind kind;
  ArbiterKind arb;
  std::size_t inputs;
  std::size_t outputs;
  std::uint64_t grant_hash;
  std::uint64_t state_hash;
  std::size_t state_len;
};

class WideSeparableTest : public ::testing::TestWithParam<WideSeparableParam> {
};

TEST_P(WideSeparableTest, GrantHashAndStateRoundTrip) {
  constexpr int kCycles = 120;
  constexpr int kSaveAt = 50;
  const WideSeparableParam& p = GetParam();
  auto alloc = make_allocator(p.kind, p.inputs, p.outputs, p.arb);
  auto twin = make_allocator(p.kind, p.inputs, p.outputs, p.arb);
  Rng rng(0x51DE);
  std::vector<std::int32_t> grant_cols;  // per cycle and input, or -1
  BitMatrix gnt, twin_gnt;
  for (int c = 0; c < kCycles; ++c) {
    const BitMatrix req =
        random_requests(p.inputs, p.outputs, 0.01 + 0.06 * (c % 5), rng);
    alloc->allocate(req, gnt);
    ASSERT_TRUE(gnt.is_matching());
    ASSERT_TRUE(gnt.is_subset_of(req));
    for (std::size_t i = 0; i < p.inputs; ++i) {
      std::int32_t col = -1;
      for (std::size_t j = 0; j < p.outputs; ++j) {
        if (gnt.get(i, j)) col = static_cast<std::int32_t>(j);
      }
      grant_cols.push_back(col);
    }
    if (c > kSaveAt) {
      twin->allocate(req, twin_gnt);
      ASSERT_EQ(gnt, twin_gnt) << "cycle " << c;
    }
    if (c == kSaveAt) {
      std::vector<std::uint8_t> bytes;
      StateArchive saving = StateArchive::saving_to(bytes);
      alloc->state(saving);
      StateArchive loading = StateArchive::loading_from(bytes);
      twin->state(loading);
      EXPECT_EQ(loading.remaining(), 0u);
    }
  }
  std::vector<std::uint8_t> bytes;
  StateArchive saving = StateArchive::saving_to(bytes);
  alloc->state(saving);
  EXPECT_EQ(sweep::fnv1a(
                reinterpret_cast<const std::uint8_t*>(grant_cols.data()),
                grant_cols.size() * sizeof(std::int32_t)),
            p.grant_hash);
  EXPECT_EQ(sweep::fnv1a(bytes.data(), bytes.size()), p.state_hash);
  EXPECT_EQ(bytes.size(), p.state_len);
}

INSTANTIATE_TEST_SUITE_P(
    AboveOneWord, WideSeparableTest,
    ::testing::Values(
        WideSeparableParam{AllocatorKind::kSeparableInputFirst,
                           ArbiterKind::kRoundRobin, 100, 100,
                           16692974571635549645ull,
                           13033188382501666532ull, 1600},
        WideSeparableParam{AllocatorKind::kSeparableInputFirst,
                           ArbiterKind::kRoundRobin, 70, 130,
                           10902655376520859788ull,
                           5423217326024858018ull, 1600},
        WideSeparableParam{AllocatorKind::kSeparableInputFirst,
                           ArbiterKind::kMatrix, 100, 100,
                           8623293275265917613ull,
                           14575970838711594503ull, 321600},
        WideSeparableParam{AllocatorKind::kSeparableInputFirst,
                           ArbiterKind::kMatrix, 70, 130,
                           6536821208244555989ull,
                           4011371589151718563ull, 365600},
        WideSeparableParam{AllocatorKind::kSeparableOutputFirst,
                           ArbiterKind::kRoundRobin, 100, 100,
                           14213842788319783616ull,
                           11173465381838631016ull, 1600},
        WideSeparableParam{AllocatorKind::kSeparableOutputFirst,
                           ArbiterKind::kRoundRobin, 70, 130,
                           16774750738013733972ull,
                           1824693020862434504ull, 1600},
        WideSeparableParam{AllocatorKind::kSeparableOutputFirst,
                           ArbiterKind::kMatrix, 100, 100,
                           15371818447838318479ull,
                           10123240184138117736ull, 321600},
        WideSeparableParam{AllocatorKind::kSeparableOutputFirst,
                           ArbiterKind::kMatrix, 70, 130,
                           2441010625722178652ull,
                           6114751889641198264ull, 365600}),
    [](const ::testing::TestParamInfo<WideSeparableParam>& info) {
      return to_string(info.param.kind) + "_" + to_string(info.param.arb) +
             "_" + std::to_string(info.param.inputs) + "x" +
             std::to_string(info.param.outputs);
    });

// ---------------------------------------------------------------------------
// Quality ordering sanity: wavefront >= separable on average.

TEST(AllocatorComparison, WavefrontGrantsAtLeastSeparableOnAverage) {
  Rng rng(31);
  auto wf = make_allocator(AllocatorKind::kWavefront, 8, 8);
  auto sep = make_allocator(AllocatorKind::kSeparableInputFirst, 8, 8);
  std::uint64_t wf_grants = 0, sep_grants = 0;
  for (int trial = 0; trial < 500; ++trial) {
    BitMatrix req = random_requests(8, 8, 0.4, rng);
    BitMatrix gnt;
    wf->allocate(req, gnt);
    wf_grants += gnt.count();
    sep->allocate(req, gnt);
    sep_grants += gnt.count();
  }
  EXPECT_GT(wf_grants, sep_grants);
}

TEST(AllocatorFactory, NamesMatchPaperLabels) {
  EXPECT_EQ(to_string(AllocatorKind::kSeparableInputFirst), "sep_if");
  EXPECT_EQ(to_string(AllocatorKind::kSeparableOutputFirst), "sep_of");
  EXPECT_EQ(to_string(AllocatorKind::kWavefront), "wf");
  EXPECT_EQ(to_string(AllocatorKind::kMaximumSize), "max");
}

}  // namespace
}  // namespace nocalloc
