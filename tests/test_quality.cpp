#include "quality/quality.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alloc/max_size_allocator.hpp"
#include "common/bit_matrix.hpp"
#include "noc/sim.hpp"

namespace nocalloc::quality {
namespace {

using nocalloc::AllocatorKind;
using nocalloc::ArbiterKind;
using nocalloc::BitMatrix;
using nocalloc::MaxSizeAllocator;
using nocalloc::Rng;
using nocalloc::SwitchAllocator;
using nocalloc::SwitchGrant;
using nocalloc::SwitchRequest;
using nocalloc::VcAllocator;
using nocalloc::VcAllocatorConfig;
using nocalloc::VcPartition;
using nocalloc::VcRequest;
using nocalloc::make_switch_allocator;
using nocalloc::make_vc_allocator;

double vc_quality(AllocatorKind kind, std::size_t ports,
                  const VcPartition& part, double rate,
                  std::size_t trials = 800) {
  VcAllocatorConfig cfg;
  cfg.ports = ports;
  cfg.partition = part;
  cfg.kind = kind;
  auto alloc = make_vc_allocator(cfg);
  Rng rng(11);
  return measure_vc_quality(*alloc, part, rate, trials, rng).quality();
}

double sa_quality(AllocatorKind kind, std::size_t ports, std::size_t vcs,
                  double rate, std::size_t trials = 800) {
  auto alloc = make_switch_allocator(
      {ports, vcs, kind, ArbiterKind::kRoundRobin});
  Rng rng(13);
  return measure_sa_quality(*alloc, rate, trials, rng).quality();
}

TEST(QualityResult, HandlesZeroRequests) {
  QualityResult r;
  EXPECT_EQ(r.quality(), 1.0);  // 0/0 treated as perfect
}

TEST(VcQuality, NeverExceedsOne) {
  const VcPartition part = VcPartition::mesh(2, 2);
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
    for (double rate : {0.2, 0.6, 1.0}) {
      const double q = vc_quality(kind, 5, part, rate, 300);
      EXPECT_LE(q, 1.0 + 1e-12);
      EXPECT_GT(q, 0.5);
    }
  }
}

TEST(VcQuality, AllOnesAtSingleVcPerClass) {
  // Fig. 7a/7d: with C = 1 every implementation is maximum.
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
    EXPECT_DOUBLE_EQ(vc_quality(kind, 5, VcPartition::mesh(2, 1), 1.0), 1.0);
    EXPECT_DOUBLE_EQ(vc_quality(kind, 10, VcPartition::fbfly(2, 1), 1.0), 1.0);
  }
}

TEST(VcQuality, WavefrontIsAlwaysMaximum) {
  // Fig. 7: "a wavefront-based VC allocator yields a matching quality of 1
  // for all configurations".
  for (double rate : {0.3, 0.7, 1.0}) {
    EXPECT_DOUBLE_EQ(
        vc_quality(AllocatorKind::kWavefront, 5, VcPartition::mesh(2, 4), rate),
        1.0);
    EXPECT_DOUBLE_EQ(vc_quality(AllocatorKind::kWavefront, 10,
                                VcPartition::fbfly(2, 2), rate),
                     1.0);
  }
}

TEST(VcQuality, InputFirstBeatsOutputFirstUnderLoad) {
  // Sec. 4.3.2: input-first propagates more requests to stage two.
  const VcPartition part = VcPartition::mesh(2, 4);
  const double q_if =
      vc_quality(AllocatorKind::kSeparableInputFirst, 5, part, 1.0, 1500);
  const double q_of =
      vc_quality(AllocatorKind::kSeparableOutputFirst, 5, part, 1.0, 1500);
  EXPECT_GT(q_if, q_of);
}

TEST(VcQuality, SeparableDegradesWithLoad) {
  const VcPartition part = VcPartition::mesh(2, 4);
  const double low =
      vc_quality(AllocatorKind::kSeparableInputFirst, 5, part, 0.1, 1500);
  const double high =
      vc_quality(AllocatorKind::kSeparableInputFirst, 5, part, 1.0, 1500);
  EXPECT_GT(low, high);
}

TEST(VcQuality, SeparableDegradesWithVcsPerClass) {
  const double c2 = vc_quality(AllocatorKind::kSeparableInputFirst, 5,
                               VcPartition::mesh(2, 2), 0.8, 1500);
  const double c4 = vc_quality(AllocatorKind::kSeparableInputFirst, 5,
                               VcPartition::mesh(2, 4), 0.8, 1500);
  EXPECT_GT(c2, c4);
}

// measure_vc_quality scores the maximum-size reference in closed form; the
// kMaximumSize family runs Hopcroft-Karp on the expanded (P*V) x (P*V)
// matrix, so its grants are the oracle for that count on every matrix.
TEST(VcQuality, MaxSizeAllocatorScoresExactlyOne) {
  for (std::size_t c : {1u, 2u, 4u}) {
    for (const auto& [ports, part] :
         {std::pair{std::size_t{5}, VcPartition::mesh(2, c)},
          std::pair{std::size_t{10}, VcPartition::fbfly(2, c)}}) {
      for (double rate : {0.2, 0.6, 1.0}) {
        VcAllocatorConfig cfg;
        cfg.ports = ports;
        cfg.partition = part;
        cfg.kind = AllocatorKind::kMaximumSize;
        auto alloc = make_vc_allocator(cfg);
        Rng rng(31);
        const QualityResult q = measure_vc_quality(*alloc, part, rate, 200, rng);
        ASSERT_GT(q.max_grants, 0u);
        EXPECT_EQ(q.grants, q.max_grants)
            << "P" << ports << " C" << c << " rate " << rate;
      }
    }
  }
}

TEST(SaQuality, NearPerfectAtLowLoad) {
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
    EXPECT_GT(sa_quality(kind, 5, 2, 0.05, 1500), 0.97);
  }
}

TEST(SaQuality, WavefrontBeatsSeparablesUnderLoad) {
  for (double rate : {0.6, 1.0}) {
    const double wf = sa_quality(AllocatorKind::kWavefront, 10, 8, rate);
    const double sif =
        sa_quality(AllocatorKind::kSeparableInputFirst, 10, 8, rate);
    const double sof =
        sa_quality(AllocatorKind::kSeparableOutputFirst, 10, 8, rate);
    EXPECT_GT(wf, sif);
    EXPECT_GT(wf, sof);
  }
}

TEST(SaQuality, InputFirstFlattensLowest) {
  // Sec. 5.3.2: sep_if is limited to one request per input port in stage 2.
  const double sif = sa_quality(AllocatorKind::kSeparableInputFirst, 10, 8, 1.0);
  const double sof = sa_quality(AllocatorKind::kSeparableOutputFirst, 10, 8, 1.0);
  EXPECT_LT(sif, sof);
}

TEST(SaQuality, WavefrontRecoversAtHighRate) {
  // Fig. 12: the wavefront curve dips at mid load and climbs again as the
  // request matrix saturates (the maximum-size bound flattens first).
  const double mid = sa_quality(AllocatorKind::kWavefront, 10, 16, 0.4, 1200);
  const double high = sa_quality(AllocatorKind::kWavefront, 10, 16, 1.0, 1200);
  EXPECT_GT(high, mid);
}

TEST(SaQuality, MaxSizeAllocatorScoresExactlyOne) {
  EXPECT_DOUBLE_EQ(sa_quality(AllocatorKind::kMaximumSize, 5, 4, 0.7), 1.0);
}

// The quality protocol runs each family's kernel through the sparse entry;
// the byte-loop reference, which each family's allocate_sparse reaches
// through the shared sparse-to-dense expansion, must score every matrix
// identically.
TEST(Quality, ReferencePathGivesIdenticalCounts) {
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
    for (const auto& [ports, part] :
         {std::pair{std::size_t{5}, VcPartition::mesh(2, 4)},
          std::pair{std::size_t{10}, VcPartition::fbfly(2, 4)}}) {
      QualityResult vc[2];
      QualityResult sa[2];
      for (bool ref : {false, true}) {
        VcAllocatorConfig cfg;
        cfg.ports = ports;
        cfg.partition = part;
        cfg.kind = kind;
        auto va = make_vc_allocator(cfg);
        auto sw = make_switch_allocator(
            {ports, part.total_vcs(), kind, ArbiterKind::kRoundRobin});
        va->set_reference_path(ref);
        sw->set_reference_path(ref);
        for (double rate : {0.2, 0.6, 1.0}) {
          Rng rng_vc(21), rng_sa(22);
          const QualityResult v =
              measure_vc_quality(*va, part, rate, 200, rng_vc);
          const QualityResult s = measure_sa_quality(*sw, rate, 200, rng_sa);
          vc[ref].grants += v.grants;
          vc[ref].max_grants += v.max_grants;
          sa[ref].grants += s.grants;
          sa[ref].max_grants += s.max_grants;
        }
      }
      const std::string where = to_string(kind) + " P" + std::to_string(ports);
      EXPECT_EQ(vc[0].grants, vc[1].grants) << where;
      EXPECT_EQ(vc[0].max_grants, vc[1].max_grants) << where;
      EXPECT_EQ(sa[0].grants, sa[1].grants) << where;
      EXPECT_EQ(sa[0].max_grants, sa[1].max_grants) << where;
    }
  }
}

// The open-loop protocols as they ran on the dense allocate() entry, kept as
// the draw-order oracle for the sparse harness: the same draws in the same
// order, byte-mask VC requests, and the union matrix built from the dense
// switch requests.
QualityResult dense_vc_quality(VcAllocator& alloc, const VcPartition& partition,
                               double rate, std::size_t trials, Rng& rng) {
  const std::size_t ports = alloc.ports();
  const std::size_t vcs = alloc.vcs();
  const std::size_t total = ports * vcs;
  const std::size_t c = partition.vcs_per_class();
  QualityResult result;
  std::vector<VcRequest> req(total);
  std::vector<int> grant;
  std::vector<std::size_t> requesters(total / c);
  for (std::size_t t = 0; t < trials; ++t) {
    std::fill(requesters.begin(), requesters.end(), 0);
    for (std::size_t i = 0; i < total; ++i) {
      VcRequest& r = req[i];
      r.valid = rng.next_bool(rate);
      if (!r.valid) continue;
      const std::size_t port = rng.next_below(ports);
      r.out_port = static_cast<int>(port);
      const std::size_t vc = i % vcs;
      const auto succ =
          partition.successors(partition.resource_class_of(vc));
      const std::size_t r2 = succ[rng.next_below(succ.size())];
      const std::size_t base =
          partition.class_base(partition.message_class_of(vc), r2);
      r.vc_mask.assign(vcs, 0);
      std::fill_n(r.vc_mask.begin() + static_cast<std::ptrdiff_t>(base), c, 1);
      if (requesters[(port * vcs + base) / c]++ < c) ++result.max_grants;
    }
    alloc.allocate(req, grant);
    for (int g : grant) {
      if (g >= 0) ++result.grants;
    }
  }
  return result;
}

QualityResult dense_sa_quality(SwitchAllocator& alloc, double rate,
                               std::size_t trials, Rng& rng) {
  const std::size_t ports = alloc.ports();
  const std::size_t vcs = alloc.vcs();
  QualityResult result;
  std::vector<SwitchRequest> req(ports * vcs);
  std::vector<SwitchGrant> grant;
  BitMatrix port_req;
  for (std::size_t t = 0; t < trials; ++t) {
    for (SwitchRequest& r : req) {
      r.valid = rng.next_bool(rate);
      r.out_port = r.valid ? static_cast<int>(rng.next_below(ports)) : -1;
    }
    alloc.allocate(req, grant);
    for (const SwitchGrant& g : grant) {
      if (g.granted()) ++result.grants;
    }
    port_req.resize(ports, ports);
    for (std::size_t i = 0; i < req.size(); ++i) {
      if (req[i].valid) {
        port_req.set(i / vcs, static_cast<std::size_t>(req[i].out_port));
      }
    }
    result.max_grants += MaxSizeAllocator::max_matching_size(port_req);
  }
  return result;
}

TEST(Quality, SparseHarnessMatchesDenseProtocol) {
  using nocalloc::noc::TopologyKind;
  using nocalloc::noc::partition_for;
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront,
        AllocatorKind::kMaximumSize}) {
    for (ArbiterKind arb : {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix}) {
      for (const auto& [topo, ports] :
           {std::pair{TopologyKind::kMesh8x8, std::size_t{5}},
            std::pair{TopologyKind::kFbfly4x4, std::size_t{10}}}) {
        for (std::size_t c : {1u, 2u, 4u}) {
          const VcPartition part = partition_for(topo, c);
          VcAllocatorConfig cfg;
          cfg.ports = ports;
          cfg.partition = part;
          cfg.kind = kind;
          cfg.arb = arb;
          // One allocator per side and protocol, so priority state evolves
          // over the same request sequence in both.
          auto va_sparse = make_vc_allocator(cfg);
          auto va_dense = make_vc_allocator(cfg);
          auto sa_sparse =
              make_switch_allocator({ports, part.total_vcs(), kind, arb});
          auto sa_dense =
              make_switch_allocator({ports, part.total_vcs(), kind, arb});
          Rng vc_sparse(41), vc_dense(41), sw_sparse(43), sw_dense(43);
          for (double rate : {0.05, 0.4, 1.0}) {
            SCOPED_TRACE(to_string(kind) + " " + to_string(arb) + " P" +
                         std::to_string(ports) + " C" + std::to_string(c) +
                         " rate " + std::to_string(rate));
            const QualityResult vs =
                measure_vc_quality(*va_sparse, part, rate, 60, vc_sparse);
            const QualityResult vd =
                dense_vc_quality(*va_dense, part, rate, 60, vc_dense);
            EXPECT_EQ(vs.grants, vd.grants);
            EXPECT_EQ(vs.max_grants, vd.max_grants);
            const QualityResult ss =
                measure_sa_quality(*sa_sparse, rate, 60, sw_sparse);
            const QualityResult sd =
                dense_sa_quality(*sa_dense, rate, 60, sw_dense);
            EXPECT_EQ(ss.grants, sd.grants);
            EXPECT_EQ(ss.max_grants, sd.max_grants);
          }
          // Both harnesses consumed exactly the same draws.
          EXPECT_EQ(vc_sparse.next(), vc_dense.next());
          EXPECT_EQ(sw_sparse.next(), sw_dense.next());
        }
      }
    }
  }
}

// Forwarders that implement only the dense entry, as timing decorators do:
// allocate_sparse reaches them through the base sparse-to-dense adapter,
// and they reach the wrapped allocator through its dense packing wrapper.
class DenseVcForwarder final : public VcAllocator {
 public:
  explicit DenseVcForwarder(VcAllocator& inner)
      : VcAllocator(inner.ports(), inner.vcs()), inner_(inner) {}
  void allocate(const std::vector<VcRequest>& req,
                std::vector<int>& grant) override {
    inner_.allocate(req, grant);
  }
  void reset() override { inner_.reset(); }

 private:
  VcAllocator& inner_;
};

class DenseSwitchForwarder final : public SwitchAllocator {
 public:
  explicit DenseSwitchForwarder(SwitchAllocator& inner)
      : SwitchAllocator(inner.ports(), inner.vcs()), inner_(inner) {}
  void allocate(const std::vector<SwitchRequest>& req,
                std::vector<SwitchGrant>& grant) override {
    inner_.allocate(req, grant);
  }
  void reset() override { inner_.reset(); }

 private:
  SwitchAllocator& inner_;
};

// The adapter round trip (sparse -> dense -> packed sparse) must score
// every matrix exactly as the undecorated allocator does, and consume the
// same draws.
TEST(Quality, DenseOnlyForwarderMatchesUndecorated) {
  using nocalloc::noc::TopologyKind;
  using nocalloc::noc::partition_for;
  for (AllocatorKind kind :
       {AllocatorKind::kSeparableInputFirst,
        AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront,
        AllocatorKind::kMaximumSize}) {
    for (const auto& [topo, ports] :
         {std::pair{TopologyKind::kMesh8x8, std::size_t{5}},
          std::pair{TopologyKind::kFbfly4x4, std::size_t{10}}}) {
      const VcPartition part = partition_for(topo, 2);
      VcAllocatorConfig cfg;
      cfg.ports = ports;
      cfg.partition = part;
      cfg.kind = kind;
      auto va_plain = make_vc_allocator(cfg);
      auto va_inner = make_vc_allocator(cfg);
      DenseVcForwarder va_fwd(*va_inner);
      auto sa_plain = make_switch_allocator(
          {ports, part.total_vcs(), kind, ArbiterKind::kRoundRobin});
      auto sa_inner = make_switch_allocator(
          {ports, part.total_vcs(), kind, ArbiterKind::kRoundRobin});
      DenseSwitchForwarder sa_fwd(*sa_inner);
      Rng vc_plain(51), vc_fwd(51), sw_plain(53), sw_fwd(53);
      for (double rate : {0.05, 0.4, 1.0}) {
        SCOPED_TRACE(to_string(kind) + " P" + std::to_string(ports) +
                     " rate " + std::to_string(rate));
        const QualityResult vp =
            measure_vc_quality(*va_plain, part, rate, 80, vc_plain);
        const QualityResult vf =
            measure_vc_quality(va_fwd, part, rate, 80, vc_fwd);
        EXPECT_EQ(vp.grants, vf.grants);
        EXPECT_EQ(vp.max_grants, vf.max_grants);
        const QualityResult sp =
            measure_sa_quality(*sa_plain, rate, 80, sw_plain);
        const QualityResult sf = measure_sa_quality(sa_fwd, rate, 80, sw_fwd);
        EXPECT_EQ(sp.grants, sf.grants);
        EXPECT_EQ(sp.max_grants, sf.max_grants);
      }
      EXPECT_EQ(vc_plain.next(), vc_fwd.next());
      EXPECT_EQ(sw_plain.next(), sw_fwd.next());
    }
  }
}

TEST(Quality, ReproducibleForSameSeed) {
  auto a = make_switch_allocator(
      {5, 2, AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin});
  auto b = make_switch_allocator(
      {5, 2, AllocatorKind::kSeparableInputFirst, ArbiterKind::kRoundRobin});
  Rng ra(99), rb(99);
  const QualityResult qa = measure_sa_quality(*a, 0.5, 500, ra);
  const QualityResult qb = measure_sa_quality(*b, 0.5, 500, rb);
  EXPECT_EQ(qa.grants, qb.grants);
  EXPECT_EQ(qa.max_grants, qb.max_grants);
}

}  // namespace
}  // namespace nocalloc::quality
