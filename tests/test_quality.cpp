#include "quality/quality.hpp"

#include <gtest/gtest.h>

namespace nocalloc::quality {
namespace {

using nocalloc::AllocatorKind;
using nocalloc::ArbiterKind;
using nocalloc::Rng;
using nocalloc::VcAllocatorConfig;
using nocalloc::VcPartition;
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

// The quality protocol runs each family's kernel through the dense API; the
// byte-loop reference must score every matrix identically.
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
        ASSERT_TRUE(va->fast_ready());
        ASSERT_TRUE(sw->fast_ready());
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
