// Differential test pinning the simulator's statistics to recorded goldens.
//
// The zero-allocation data path (packet arena, ring-buffer flit queues,
// active-set router scheduling) is required to be a pure performance
// optimization: for every design point and seed it must produce bit-identical
// latency/throughput statistics to the straightforward simulator it replaced.
// The table below was recorded from the pre-optimization simulator at the
// same design points; every field of SimResult is compared exactly (no
// tolerances). The runs here also enable the invariant checker, so a pass
// additionally proves that checked and unchecked runs agree and that the
// active-set audit holds on every step.
//
// The same rows also pin the allocator stage's two implementations to each
// other: the single-word kernels every run takes by default, and the
// byte-loop reference allocators behind Network::set_reference_path(true),
// reached through the sparse-to-dense adapter. Maximum-size allocators have
// no kernel and always take the adapter.
//
// If a deliberate semantic change ever invalidates these goldens, re-record
// them with the dump program documented in DESIGN.md (simulator memory
// model), and justify the diff in the commit message.
#include "noc/sim.hpp"
#include "sim_result_eq.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace nocalloc::noc {
namespace {

struct GoldenPoint {
  TopologyKind topo;
  std::size_t vcs_per_class;
  AllocatorKind vc_alloc;
  AllocatorKind sw_alloc;
  SpecMode spec;
  double load;
  std::uint64_t seed;
  // Recorded statistics (exact, down to the last bit of every double).
  std::size_t packets_measured;
  double avg_packet_latency;
  double avg_network_latency;
  double p99_packet_latency;
  double accepted_flit_rate;
  std::uint64_t spec_grants_used;
  std::uint64_t misspeculations;
  double ugal_nonminimal_fraction;
  // Router-steps the active-set scheduler skipped. Unlike the statistics
  // above this pins the scheduler itself: the allocate pass must visit a
  // router woken mid-pass by a lower-index router's send in the same cycle.
  std::uint64_t router_steps_skipped;
  // Trailing (defaulted) so the originally recorded rows stay untouched;
  // the per-family rows at the bottom of the table override them.
  ArbiterKind vc_arb = ArbiterKind::kRoundRobin;
  ArbiterKind sw_arb = ArbiterKind::kRoundRobin;
};

// Short phases keep the whole table under a few seconds even with the
// invariant checker attached; they still cover warmup, measurement, and a
// full drain for every point.
SimConfig config_for(const GoldenPoint& pt) {
  SimConfig cfg;
  cfg.topology = pt.topo;
  cfg.vcs_per_class = pt.vcs_per_class;
  cfg.vc_alloc = pt.vc_alloc;
  cfg.sw_alloc = pt.sw_alloc;
  cfg.vc_arb = pt.vc_arb;
  cfg.sw_arb = pt.sw_arb;
  cfg.spec = pt.spec;
  cfg.injection_rate = pt.load;
  cfg.seed = pt.seed;
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 800;
  cfg.drain_cycles = 1200;
  cfg.check_invariants = true;
  return cfg;
}

const GoldenPoint kGoldens[] = {
    {TopologyKind::kMesh8x8, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.050000000000000003, 1ull,
     777u, 23.723294723294718, 23.118404118404136,
     45, 0.04607421875, 15611ull, 26ull,
     0, 63483ull},
    {TopologyKind::kMesh8x8, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.050000000000000003, 2ull,
     875u, 23.027428571428558, 22.421714285714287,
     44, 0.052167968750000002, 15637ull, 35ull,
     0, 63306ull},
    {TopologyKind::kMesh8x8, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.29999999999999999, 3ull,
     5173u, 41.675236806495228, 39.395901797796292,
     118, 0.31027343750000003, 66353ull, 7925ull,
     0, 1710ull},
    {TopologyKind::kMesh8x8, 1u, AllocatorKind::kWavefront,
     AllocatorKind::kWavefront, SpecMode::kPessimistic,
     0.14999999999999999, 1ull,
     2451u, 25.342717258261974, 24.495716034271769,
     51, 0.14533203124999999, 44107ull, 418ull,
     0, 12512ull},
    {TopologyKind::kMesh8x8, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kNonSpeculative,
     0.14999999999999999, 2ull,
     2494u, 31.805934242181195, 30.977145148356119,
     63, 0.14919921875, 0ull, 0ull,
     0, 9054ull},
    {TopologyKind::kMesh8x8, 2u, AllocatorKind::kSeparableOutputFirst,
     AllocatorKind::kSeparableOutputFirst, SpecMode::kConservative,
     0.20000000000000001, 4ull,
     3221u, 25.91555417572182, 24.989754734554488,
     55, 0.19150390624999999, 52128ull, 158ull,
     0, 5375ull},
    {TopologyKind::kFbfly4x4, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.050000000000000003, 1ull,
     784u, 12.653061224489806, 12.085459183673466,
     21, 0.046230468750000003, 6486ull, 7ull,
     0.052771855010660979, 7555ull},
    {TopologyKind::kFbfly4x4, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.34999999999999998, 2ull,
     5881u, 20.852916170719315, 19.009522190103748,
     54, 0.34951171874999998, 30576ull, 4131ull,
     0.16170212765957448, 35ull},
    {TopologyKind::kFbfly4x4, 2u, AllocatorKind::kWavefront,
     AllocatorKind::kWavefront, SpecMode::kPessimistic,
     0.20000000000000001, 3ull,
     3518u, 15.409323479249574, 14.338828880045464,
     35, 0.20744140624999999, 21994ull, 11ull,
     0.14799899320412788, 108ull},
    {TopologyKind::kRing16, 1u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.10000000000000001, 5ull,
     425u, 19.503529411764696, 18.821176470588217,
     35, 0.100859375, 6208ull, 39ull,
     0, 8004ull},
    // Per-family rows covering the allocator kernels:
    // matrix arbiters under sep_if, sep_of on the torus (conservative
    // speculation), and wavefront on the torus (non-speculative).
    {TopologyKind::kMesh8x8, 2u, AllocatorKind::kSeparableInputFirst,
     AllocatorKind::kSeparableInputFirst, SpecMode::kPessimistic,
     0.14999999999999999, 6ull,
     2689u, 24.937151357381961, 24.107103012272209,
     49, 0.16011718750000001, 42498ull, 61ull,
     0, 10676ull, ArbiterKind::kMatrix, ArbiterKind::kMatrix},
    {TopologyKind::kTorus8x8, 1u, AllocatorKind::kSeparableOutputFirst,
     AllocatorKind::kSeparableOutputFirst, SpecMode::kConservative,
     0.10000000000000001, 7ull,
     1688u, 20.095379146919477, 19.380331753554536,
     36, 0.10021484375, 23941ull, 103ull,
     0, 35792ull},
    {TopologyKind::kTorus8x8, 2u, AllocatorKind::kWavefront,
     AllocatorKind::kWavefront, SpecMode::kNonSpeculative,
     0.10000000000000001, 8ull,
     1689u, 24.750148016577853, 24.062759029011243,
     42, 0.1006640625, 0ull, 0ull,
     0, 27664ull},
    // Maximum-size VA and SA: no kernel, so both stages run through the
    // sparse-to-dense adapter (recorded from the dense scalar router stage).
    {TopologyKind::kMesh8x8, 2u, AllocatorKind::kMaximumSize,
     AllocatorKind::kMaximumSize, SpecMode::kPessimistic,
     0.14999999999999999, 9ull,
     2509u, 25.759665205261125, 24.926265444400169,
     57, 0.14955078124999999, 42808ull, 9ull,
     0, 11979ull},
};

SimResult run_with_reference_path(const SimConfig& cfg, bool ref) {
  SimInstance sim(cfg);
  sim.network().set_reference_path(ref);
  sim.warmup();
  return sim.measure_and_drain();
}

std::string describe(const GoldenPoint& pt) {
  return to_string(pt.topo) + " C=" + std::to_string(pt.vcs_per_class) +
         " load=" + std::to_string(pt.load) +
         " seed=" + std::to_string(pt.seed);
}

TEST(SimEquivalence, StatisticsMatchRecordedGoldens) {
  for (const GoldenPoint& pt : kGoldens) {
    SCOPED_TRACE(describe(pt));
    const SimResult r = run_simulation(config_for(pt));
    // Exact comparisons on doubles are deliberate: the optimization must not
    // perturb a single arbitration decision, so every statistic is
    // reproduced bit for bit.
    EXPECT_EQ(r.packets_measured, pt.packets_measured);
    EXPECT_EQ(r.avg_packet_latency, pt.avg_packet_latency);
    EXPECT_EQ(r.avg_network_latency, pt.avg_network_latency);
    EXPECT_EQ(r.p99_packet_latency, pt.p99_packet_latency);
    EXPECT_EQ(r.accepted_flit_rate, pt.accepted_flit_rate);
    EXPECT_EQ(r.spec_grants_used, pt.spec_grants_used);
    EXPECT_EQ(r.misspeculations, pt.misspeculations);
    EXPECT_EQ(r.ugal_nonminimal_fraction, pt.ugal_nonminimal_fraction);
    EXPECT_EQ(r.router_steps_skipped, pt.router_steps_skipped);
    EXPECT_FALSE(r.saturated);
  }
}

TEST(SimEquivalence, CheckerOnAndOffAgree) {
  // The goldens above come from checked runs; unchecked runs must reproduce
  // them too. CheckerIsAPureObserver below pins the stronger claim that the
  // whole network state stays equal.
  for (const GoldenPoint& pt : kGoldens) {
    SCOPED_TRACE(describe(pt));
    SimConfig cfg = config_for(pt);
    cfg.check_invariants = false;
    const SimResult r = run_simulation(cfg);
    EXPECT_EQ(r.packets_measured, pt.packets_measured);
    EXPECT_EQ(r.avg_packet_latency, pt.avg_packet_latency);
    EXPECT_EQ(r.accepted_flit_rate, pt.accepted_flit_rate);
    EXPECT_EQ(r.spec_grants_used, pt.spec_grants_used);
    EXPECT_EQ(r.misspeculations, pt.misspeculations);
  }
}

TEST(SimEquivalence, KernelsMatchReferenceOracle) {
  // Every row with the allocators on their byte-loop reference path (the
  // differential oracle) against the default kernel path, every SimResult
  // field exactly equal. The kernel path skips the stages and speculative
  // sides without requests that the reference path runs, so this also
  // diffs the skip-and-replay against the run-everything schedule.
  for (const GoldenPoint& pt : kGoldens) {
    SCOPED_TRACE(describe(pt));
    SimConfig cfg = config_for(pt);
    cfg.check_invariants = false;
    expect_identical(run_with_reference_path(cfg, false),
                       run_with_reference_path(cfg, true));
  }
}

TEST(SimEquivalence, WarmSnapshotForksFromOracleOntoKernels) {
  // A warm state captured on the oracle path and restored onto the kernel
  // path must evolve exactly as the oracle would: restored priority state
  // (round-robin pointers, matrix rows, wavefront diagonals) means the same
  // thing to both implementations.
  SimConfig sep_if;
  sep_if.topology = TopologyKind::kMesh8x8;
  sep_if.vcs_per_class = 2;
  sep_if.injection_rate = 0.1;
  sep_if.warmup_cycles = 300;
  sep_if.measure_cycles = 600;
  sep_if.drain_cycles = 900;

  SimConfig sep_of = sep_if;
  sep_of.vc_alloc = AllocatorKind::kSeparableOutputFirst;
  sep_of.sw_alloc = AllocatorKind::kSeparableOutputFirst;
  sep_of.vc_arb = ArbiterKind::kMatrix;
  sep_of.sw_arb = ArbiterKind::kMatrix;

  SimConfig wf = sep_if;
  wf.topology = TopologyKind::kFbfly4x4;
  wf.vc_alloc = AllocatorKind::kWavefront;
  wf.sw_alloc = AllocatorKind::kWavefront;

  for (const SimConfig& pt : {sep_if, sep_of, wf}) {
    SCOPED_TRACE(to_string(pt.topology) + " va=" + to_string(pt.vc_alloc));
    SimInstance warm_sim(pt);
    warm_sim.network().set_reference_path(true);
    warm_sim.warmup();
    SimSnapshot warm;
    warm_sim.snapshot(warm);

    for (const double rate : {0.1, 0.2}) {
      SCOPED_TRACE("rate " + std::to_string(rate));
      SimResult forks[2];
      for (const bool ref : {false, true}) {
        SimInstance sim(pt);
        sim.network().set_reference_path(ref);
        sim.restore(warm);
        sim.set_injection_rate(rate);
        sim.run_cycles(200);
        forks[ref ? 1 : 0] = sim.measure_and_drain();
      }
      expect_identical(forks[0], forks[1]);
    }
  }
}

// One lock-step design point: the same arbiter kind for VA and SA.
struct LockStepPoint {
  TopologyKind topo;
  std::size_t vcs_per_class;
  AllocatorKind vc_alloc;
  AllocatorKind sw_alloc;
  ArbiterKind arb;
  SpecMode spec;
  double load;
};

constexpr auto kMesh = TopologyKind::kMesh8x8;
constexpr auto kFbfly = TopologyKind::kFbfly4x4;
constexpr auto kTorus = TopologyKind::kTorus8x8;
constexpr auto kRing = TopologyKind::kRing16;
constexpr auto kIf = AllocatorKind::kSeparableInputFirst;
constexpr auto kOf = AllocatorKind::kSeparableOutputFirst;
constexpr auto kWf = AllocatorKind::kWavefront;
constexpr auto kMax = AllocatorKind::kMaximumSize;
constexpr auto kRr = ArbiterKind::kRoundRobin;
constexpr auto kM = ArbiterKind::kMatrix;
constexpr auto kNonspec = SpecMode::kNonSpeculative;
constexpr auto kSpecGnt = SpecMode::kConservative;
constexpr auto kSpecReq = SpecMode::kPessimistic;

SimConfig lock_step_config(const LockStepPoint& pt) {
  SimConfig cfg;
  cfg.topology = pt.topo;
  cfg.vcs_per_class = pt.vcs_per_class;
  cfg.vc_alloc = pt.vc_alloc;
  cfg.sw_alloc = pt.sw_alloc;
  cfg.vc_arb = pt.arb;
  cfg.sw_arb = pt.arb;
  cfg.spec = pt.spec;
  cfg.injection_rate = pt.load;
  return cfg;
}

std::string describe(const SimConfig& cfg) {
  return to_string(cfg.topology) + " C=" + std::to_string(cfg.vcs_per_class) +
         " va=" + to_string(cfg.vc_alloc) + "/" + to_string(cfg.vc_arb) +
         " sa=" + to_string(cfg.sw_alloc) + "/" + to_string(cfg.sw_arb) +
         " " + to_string(cfg.spec) +
         " load=" + std::to_string(cfg.injection_rate);
}

// Steps `a` and `b` side by side for 1500 cycles and requires
// byte-identical network snapshots every 100 cycles, locating the first
// differing byte.
void expect_lock_step(SimInstance& a, SimInstance& b) {
  NetworkSnapshot sa;
  NetworkSnapshot sb;
  for (int cycle = 100; cycle <= 1500; cycle += 100) {
    a.run_cycles(100);
    b.run_cycles(100);
    a.network().snapshot(sa);
    b.network().snapshot(sb);
    ASSERT_EQ(sa.bytes.size(), sb.bytes.size()) << "cycle " << cycle;
    const auto diff =
        std::mismatch(sa.bytes.begin(), sa.bytes.end(), sb.bytes.begin());
    ASSERT_TRUE(diff.first == sa.bytes.end())
        << "cycle " << cycle << ": first difference at byte "
        << (diff.first - sa.bytes.begin()) << " of " << sa.bytes.size();
  }
  EXPECT_GT(a.network().flits_injected(), 0u);
}

TEST(SimEquivalence, LockStepKernelAndReferenceStateStaysEqual) {
  // A kernel network and a reference-path network stepped side by side
  // must hold byte-identical snapshots every 100 cycles: the oracle reads
  // and writes the kernels' own arbiter banks, so any divergence in grants
  // or priority updates shows up as a state difference within 100 cycles.
  // The kernel side skips stages and speculative sides without requests,
  // replaying them as advance_priority(1); the reference side runs them in
  // full, so the skip is diffed too. The points cover every VC and switch
  // family with a kernel, both arbiter kinds, all three speculation modes
  // and both topologies.
  const LockStepPoint points[] = {
      {kMesh, 1, kIf, kIf, kRr, kNonspec, 0.25},
      {kMesh, 2, kOf, kOf, kM, kSpecGnt, 0.30},
      {kMesh, 1, kWf, kWf, kM, kSpecReq, 0.30},
      {kMesh, 2, kOf, kWf, kRr, kSpecReq, 0.05},
      {kFbfly, 1, kIf, kOf, kM, kSpecReq, 0.35},
      {kFbfly, 2, kOf, kIf, kRr, kSpecGnt, 0.30},
      {kFbfly, 1, kWf, kWf, kRr, kNonspec, 0.40},
      {kFbfly, 1, kIf, kWf, kM, kSpecGnt, 0.10},
  };
  for (const LockStepPoint& pt : points) {
    const SimConfig cfg = lock_step_config(pt);
    SCOPED_TRACE(describe(cfg));
    SimInstance kernel(cfg);
    SimInstance oracle(cfg);
    oracle.network().set_reference_path(true);
    expect_lock_step(kernel, oracle);
  }
}

TEST(SimEquivalence, CheckerIsAPureObserver) {
  // A checked and an unchecked network stepped side by side must hold
  // byte-identical snapshots every 100 cycles: the checker observes the
  // production schedule -- the scheduler's skipped routers, the skipped
  // allocation stages and speculative sides -- and changes no state. The
  // points cover every topology, every VC and switch family, both arbiter
  // kinds and all three speculation modes, at light and heavy load.
  const LockStepPoint points[] = {
      {kMesh, 1, kIf, kIf, kRr, kNonspec, 0.02},
      {kMesh, 2, kOf, kOf, kM, kSpecGnt, 0.30},
      {kMesh, 1, kWf, kWf, kM, kSpecReq, 0.10},
      {kMesh, 2, kMax, kMax, kRr, kSpecReq, 0.15},
      {kFbfly, 1, kWf, kWf, kRr, kSpecReq, 0.40},
      {kFbfly, 2, kIf, kWf, kM, kSpecGnt, 0.05},
      {kFbfly, 1, kMax, kOf, kRr, kNonspec, 0.20},
      {kTorus, 2, kIf, kIf, kRr, kSpecReq, 0.20},
      {kTorus, 1, kWf, kOf, kM, kNonspec, 0.05},
      {kRing, 2, kOf, kMax, kM, kSpecGnt, 0.15},
      {kRing, 1, kWf, kWf, kRr, kSpecReq, 0.05},
      {kRing, 2, kIf, kOf, kRr, kNonspec, 0.30},
  };
  for (const LockStepPoint& pt : points) {
    SimConfig cfg = lock_step_config(pt);
    SCOPED_TRACE(describe(cfg));
    SimInstance plain(cfg);
    cfg.check_invariants = true;
    SimInstance checked(cfg);
    expect_lock_step(plain, checked);
  }
}

TEST(SimEquivalence, WorkProportionalityCountersArePlausible) {
  // Low load on the mesh: a large fraction of router-steps must be skipped
  // as quiescent, and the arena high-water mark stays far below the packet
  // count (packets are recycled, not accumulated).
  const SimResult r = run_simulation(config_for(kGoldens[0]));
  EXPECT_EQ(r.cycles_simulated, 2400u);
  EXPECT_EQ(r.router_steps_total, 2400u * 64u);
  EXPECT_GT(r.router_steps_skipped, r.router_steps_total / 10);
  EXPECT_LT(r.router_steps_skipped, r.router_steps_total);
  EXPECT_GT(r.arena_high_water, 0u);
  EXPECT_LT(r.arena_high_water, 2000u);
}

}  // namespace
}  // namespace nocalloc::noc
