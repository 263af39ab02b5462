#include "vc/vc_allocator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.hpp"
#include "vc/vc_wavefront_allocator.hpp"

namespace nocalloc {
namespace {

// Generates a random legal request set for the given partition: every input
// VC requests with probability `rate`, targeting all C VCs of one legal
// (message, resource) class at a random output port.
std::vector<VcRequest> random_requests(std::size_t ports,
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
    const std::size_t base =
        part.class_base(part.message_class_of(vc), r2);
    for (std::size_t c = 0; c < part.vcs_per_class(); ++c) {
      r.vc_mask[base + c] = 1;
    }
  }
  return req;
}

// Checks the three matching constraints on a VC-allocation result.
void expect_valid(const std::vector<VcRequest>& req,
                  const std::vector<int>& grant, std::size_t vcs) {
  std::set<int> used_outputs;
  for (std::size_t i = 0; i < grant.size(); ++i) {
    if (grant[i] < 0) continue;
    ASSERT_TRUE(req[i].valid);
    const std::size_t port = static_cast<std::size_t>(grant[i]) / vcs;
    const std::size_t w = static_cast<std::size_t>(grant[i]) % vcs;
    ASSERT_EQ(static_cast<int>(port), req[i].out_port);
    ASSERT_TRUE(req[i].vc_mask[w]) << "grant outside candidate mask";
    ASSERT_TRUE(used_outputs.insert(grant[i]).second)
        << "output VC granted twice";
  }
}

struct VcAllocParam {
  AllocatorKind kind;
  std::size_t ports;
  std::size_t m, r, c;
  bool sparse;
};

VcPartition make_partition(const VcAllocParam& p) {
  if (p.r == 1) return VcPartition::mesh(p.m, p.c);
  return VcPartition::fbfly(p.m, p.c);
}

class VcAllocatorPropertyTest : public ::testing::TestWithParam<VcAllocParam> {
 protected:
  std::unique_ptr<VcAllocator> make(const VcPartition& part) const {
    VcAllocatorConfig cfg;
    cfg.ports = GetParam().ports;
    cfg.partition = part;
    cfg.kind = GetParam().kind;
    cfg.sparse = GetParam().sparse;
    return make_vc_allocator(cfg);
  }
};

TEST_P(VcAllocatorPropertyTest, GrantsAreValidMatchings) {
  const VcPartition part = make_partition(GetParam());
  auto alloc = make(part);
  Rng rng(3);
  std::vector<int> grant;
  for (int trial = 0; trial < 200; ++trial) {
    auto req = random_requests(GetParam().ports, part, 0.5, rng);
    alloc->allocate(req, grant);
    expect_valid(req, grant, part.total_vcs());
  }
}

TEST_P(VcAllocatorPropertyTest, NonConflictingRequestsAllGranted) {
  // Two input VCs at different ports requesting different classes never
  // conflict and must both be served (Sec. 4.3.2).
  const VcPartition part = make_partition(GetParam());
  auto alloc = make(part);
  const std::size_t vcs = part.total_vcs();
  std::vector<VcRequest> req(GetParam().ports * vcs);
  // Input VC 0 at port 0 -> output port 0; input VC 0 at port 1 -> port 1.
  for (std::size_t p = 0; p < 2; ++p) {
    VcRequest& r = req[p * vcs];
    r.valid = true;
    r.out_port = static_cast<int>(p);
    r.vc_mask.assign(vcs, 0);
    const auto succ = part.successors(part.resource_class_of(0));
    const std::size_t base = part.class_base(0, succ[0]);
    for (std::size_t c = 0; c < part.vcs_per_class(); ++c) {
      r.vc_mask[base + c] = 1;
    }
  }
  std::vector<int> grant;
  alloc->allocate(req, grant);
  EXPECT_GE(grant[0], 0);
  EXPECT_GE(grant[vcs], 0);
}

TEST_P(VcAllocatorPropertyTest, NoGrantWithoutRequest) {
  const VcPartition part = make_partition(GetParam());
  auto alloc = make(part);
  std::vector<VcRequest> req(GetParam().ports * part.total_vcs());
  std::vector<int> grant;
  alloc->allocate(req, grant);
  for (int g : grant) EXPECT_EQ(g, -1);
}

TEST_P(VcAllocatorPropertyTest, SingleVcPerClassIsAlwaysMaximum) {
  // At C = 1 each request targets exactly one output VC; every allocator
  // grants one request per contended VC, so grant count equals the number
  // of distinct requested output VCs (matching quality 1, Fig. 7a/7d).
  if (GetParam().c != 1) return;
  const VcPartition part = make_partition(GetParam());
  auto alloc = make(part);
  Rng rng(5);
  std::vector<int> grant;
  for (int trial = 0; trial < 100; ++trial) {
    auto req = random_requests(GetParam().ports, part, 0.7, rng);
    std::set<int> distinct;
    for (const auto& r : req) {
      if (!r.valid) continue;
      for (std::size_t w = 0; w < part.total_vcs(); ++w) {
        if (r.vc_mask[w]) {
          distinct.insert(r.out_port * static_cast<int>(part.total_vcs()) +
                          static_cast<int>(w));
        }
      }
    }
    alloc->allocate(req, grant);
    std::size_t grants = 0;
    for (int g : grant) {
      if (g >= 0) ++grants;
    }
    ASSERT_EQ(grants, distinct.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    DesignPoints, VcAllocatorPropertyTest,
    ::testing::Values(
        VcAllocParam{AllocatorKind::kSeparableInputFirst, 5, 2, 1, 1, false},
        VcAllocParam{AllocatorKind::kSeparableInputFirst, 5, 2, 1, 4, false},
        VcAllocParam{AllocatorKind::kSeparableInputFirst, 10, 2, 2, 2, false},
        VcAllocParam{AllocatorKind::kSeparableOutputFirst, 5, 2, 1, 1, false},
        VcAllocParam{AllocatorKind::kSeparableOutputFirst, 5, 2, 1, 4, false},
        VcAllocParam{AllocatorKind::kSeparableOutputFirst, 10, 2, 2, 2, false},
        VcAllocParam{AllocatorKind::kWavefront, 5, 2, 1, 1, false},
        VcAllocParam{AllocatorKind::kWavefront, 5, 2, 1, 4, false},
        VcAllocParam{AllocatorKind::kWavefront, 10, 2, 2, 2, false},
        VcAllocParam{AllocatorKind::kWavefront, 5, 2, 1, 2, true},
        VcAllocParam{AllocatorKind::kWavefront, 10, 2, 2, 2, true},
        VcAllocParam{AllocatorKind::kMaximumSize, 5, 2, 1, 4, false},
        VcAllocParam{AllocatorKind::kMaximumSize, 10, 2, 2, 2, false}),
    [](const ::testing::TestParamInfo<VcAllocParam>& info) {
      return to_string(info.param.kind) + "_P" +
             std::to_string(info.param.ports) + "_" +
             std::to_string(info.param.m) + "x" +
             std::to_string(info.param.r) + "x" +
             std::to_string(info.param.c) +
             (info.param.sparse ? "_sparse" : "");
    });

// ---------------------------------------------------------------------------
// Wavefront-specific behaviour.

TEST(VcWavefrontAllocator, SparseAndDenseGrantEqualCounts) {
  // Splitting the wavefront into per-message-class blocks (Sec. 4.2) must
  // not change the number of grants: legal requests never cross classes.
  const VcPartition part = VcPartition::fbfly(2, 2);
  VcWavefrontAllocator dense(10, part, false);
  VcWavefrontAllocator sparse(10, part, true);
  Rng rng_a(7), rng_b(7);
  std::vector<int> ga, gb;
  std::uint64_t count_dense = 0, count_sparse = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto req_a = random_requests(10, part, 0.5, rng_a);
    auto req_b = random_requests(10, part, 0.5, rng_b);
    ASSERT_EQ(req_a.size(), req_b.size());
    dense.allocate(req_a, ga);
    sparse.allocate(req_b, gb);
    for (int g : ga) count_dense += g >= 0 ? 1 : 0;
    for (int g : gb) count_sparse += g >= 0 ? 1 : 0;
  }
  // Diagonal rotation differs between one big and two small blocks, so
  // individual matchings may differ; totals must agree within a hair
  // because both are maximal on the same block-structured requests.
  const double diff =
      std::abs(static_cast<double>(count_dense) -
               static_cast<double>(count_sparse)) /
      static_cast<double>(count_dense);
  EXPECT_LT(diff, 0.01) << count_dense << " vs " << count_sparse;
}

TEST(VcWavefrontAllocator, QualityIsAlwaysMaximumForClassRequests) {
  // Requests target whole classes, so on the resulting block-complete
  // bipartite structure maximal implies maximum: the wavefront VC allocator
  // achieves matching quality 1.0 (Fig. 7).
  const VcPartition part = VcPartition::mesh(2, 4);
  VcWavefrontAllocator wf(5, part, false);
  Rng rng(11);
  std::vector<int> grant;
  for (int trial = 0; trial < 100; ++trial) {
    auto req = random_requests(5, part, 0.8, rng);
    wf.allocate(req, grant);
    // Verify maximality per (port, class) bucket: grants in each bucket
    // equal min(requesters, C).
    for (std::size_t port = 0; port < 5; ++port) {
      for (std::size_t m = 0; m < 2; ++m) {
        const std::size_t base = part.class_base(m, 0);
        std::size_t requesters = 0, grants = 0;
        for (std::size_t i = 0; i < req.size(); ++i) {
          if (!req[i].valid ||
              req[i].out_port != static_cast<int>(port)) {
            continue;
          }
          if (!req[i].vc_mask[base]) continue;
          ++requesters;
          if (grant[i] >= 0) ++grants;
        }
        ASSERT_EQ(grants, std::min(requesters, part.vcs_per_class()));
      }
    }
  }
}

// Malformed dense requests abort on both paths: dense allocate() validates
// them in the one pass that packs them for the kernel and the reference
// alike.
TEST(VcAllocatorDeathTest, MalformedRequestsAbortOnBothPaths) {
  const std::size_t ports = 5;
  const VcPartition part = VcPartition::fbfly(2, 2);
  const std::size_t vcs = part.total_vcs();
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront,
        AllocatorKind::kMaximumSize}) {
    for (bool ref : {false, true}) {
      VcAllocatorConfig cfg;
      cfg.ports = ports;
      cfg.partition = part;
      cfg.kind = kind;
      auto alloc = make_vc_allocator(cfg);
      alloc->set_reference_path(ref);
      const std::string where =
          to_string(kind) + (ref ? " reference" : " kernel");
      std::vector<VcRequest> good(ports * vcs);
      good[3] = {true, 1, ReqVector(vcs, 1)};
      std::vector<int> grant;
      alloc->allocate(good, grant);
      ASSERT_GE(grant[3], 0) << where;

      std::vector<VcRequest> bad = good;
      bad.pop_back();
      EXPECT_DEATH(alloc->allocate(bad, grant), "check failed") << where;
      bad = good;
      bad.push_back({});
      EXPECT_DEATH(alloc->allocate(bad, grant), "check failed") << where;
      for (int port : {-1, static_cast<int>(ports)}) {
        bad = good;
        bad[3].out_port = port;
        EXPECT_DEATH(alloc->allocate(bad, grant), "check failed")
            << where << " out_port " << port;
      }
      for (std::size_t size : {vcs - 1, vcs + 1}) {
        bad = good;
        bad[3].vc_mask.resize(size, 1);
        EXPECT_DEATH(alloc->allocate(bad, grant), "check failed")
            << where << " mask size " << size;
      }
    }
  }
}

TEST(VcAllocatorFactory, RejectsZeroPorts) {
  VcAllocatorConfig cfg;
  cfg.ports = 0;
  EXPECT_DEATH(make_vc_allocator(cfg), "check failed");
}

}  // namespace
}  // namespace nocalloc
