// Warm snapshot/restore correctness: a simulation restored from a snapshot
// must evolve bit-identically to one that never stopped -- same latency
// statistics, same counters, same invariant-checker state. That identity is
// what lets the sweep engine warm a design point once and fork the warm
// state across load points (src/sweep/sim_batch).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/sim.hpp"
#include "sim_result_eq.hpp"

namespace nocalloc::noc {
namespace {

SimConfig small_config(TopologyKind topo, bool check, double rate = 0.12) {
  SimConfig cfg;
  cfg.topology = topo;
  cfg.vcs_per_class = 2;
  cfg.injection_rate = rate;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 500;
  cfg.drain_cycles = 1500;
  cfg.seed = 0xABCDEF;
  cfg.check_invariants = check;
  return cfg;
}

// One restore case: a topology, the checker on or off, an injection rate,
// and the allocator family (VC and switch allocation alike), arbiter and
// speculation mode. At the low rate most routers are inactive when the
// snapshot is taken, so restores exercise the active-set words and the
// rebuild of the derived scheduling sets (occupied, injecting, due slots,
// receive-pending bits) from VC states, source queues and channel contents.
// Torus and ring restores carry dateline routing state; nonspec and
// spec_gnt take Router's other allocator branches.
struct RestoreCase {
  TopologyKind topology;
  bool check;
  double rate;
  AllocatorKind alloc = AllocatorKind::kSeparableInputFirst;
  ArbiterKind arb = ArbiterKind::kRoundRobin;
  SpecMode spec = SpecMode::kPessimistic;

  SimConfig config() const {
    SimConfig cfg = small_config(topology, check, rate);
    cfg.vc_alloc = cfg.sw_alloc = alloc;
    cfg.vc_arb = cfg.sw_arb = arb;
    cfg.spec = spec;
    return cfg;
  }

  std::string name() const {
    std::string n = to_string(topology);
    if (alloc != AllocatorKind::kSeparableInputFirst ||
        arb != ArbiterKind::kRoundRobin || spec != SpecMode::kPessimistic) {
      for (const std::string& part :
           {to_string(alloc), to_string(arb), to_string(spec)}) {
        n += '_';
        n += part;
      }
    }
    return n + (check ? "_checked" : "_unchecked") +
           (rate == 0.02 ? "_lowload" : "");
  }
};

class SnapshotRestoreTest : public ::testing::TestWithParam<RestoreCase> {};

// Restoring a snapshot into a FRESH instance must reproduce the
// uninterrupted run exactly: warmup+measure in one instance equals
// warmup+snapshot in one instance, restore+measure in another.
TEST_P(SnapshotRestoreTest, FreshInstanceRestoreMatchesUninterrupted) {
  const bool check = GetParam().check;
  const SimConfig cfg = GetParam().config();

  SimInstance uninterrupted(cfg);
  if (check) uninterrupted.checker().throw_on_violation();
  uninterrupted.warmup();
  const SimResult want = uninterrupted.measure_and_drain();

  SimInstance warm(cfg);
  if (check) warm.checker().throw_on_violation();
  warm.warmup();
  SimSnapshot snap;
  warm.snapshot(snap);

  SimInstance forked(cfg);
  if (check) forked.checker().throw_on_violation();
  forked.restore(snap);
  const SimResult got = forked.measure_and_drain();

  expect_identical(got, want);
  if (check) {
    EXPECT_EQ(forked.checker().checks_run(),
              uninterrupted.checker().checks_run());
    EXPECT_EQ(forked.checker().violations_seen(), 0u);
    EXPECT_EQ(uninterrupted.checker().violations_seen(), 0u);
  }
}

// Restoring into a DIRTY instance -- one that ran on past the snapshot at a
// different load, growing its arena and rings -- must also reproduce the
// uninterrupted run: restore rewinds every piece of mutable state, and
// larger-than-snapshot storage capacities are unobservable.
TEST_P(SnapshotRestoreTest, DirtyInstanceRestoreMatchesUninterrupted) {
  const bool check = GetParam().check;
  const SimConfig cfg = GetParam().config();

  SimInstance uninterrupted(cfg);
  if (check) uninterrupted.checker().throw_on_violation();
  uninterrupted.warmup();
  const SimResult want = uninterrupted.measure_and_drain();

  SimInstance sim(cfg);
  if (check) sim.checker().throw_on_violation();
  sim.warmup();
  SimSnapshot snap;
  sim.snapshot(snap);

  // Dirty the instance: simulate well past the snapshot at 3x the load.
  sim.set_injection_rate(cfg.injection_rate * 3.0);
  sim.run_cycles(800);

  sim.restore(snap);
  sim.set_injection_rate(cfg.injection_rate);
  const SimResult got = sim.measure_and_drain();

  // The dirty phase may have pushed the arena high-water mark above the
  // uninterrupted run's; every semantic field still matches.
  EXPECT_EQ(got.avg_packet_latency, want.avg_packet_latency);
  EXPECT_EQ(got.avg_network_latency, want.avg_network_latency);
  EXPECT_EQ(got.p99_packet_latency, want.p99_packet_latency);
  EXPECT_EQ(got.packets_measured, want.packets_measured);
  EXPECT_EQ(got.accepted_flit_rate, want.accepted_flit_rate);
  EXPECT_EQ(got.saturated, want.saturated);
  EXPECT_EQ(got.spec_grants_used, want.spec_grants_used);
  EXPECT_EQ(got.misspeculations, want.misspeculations);
  EXPECT_EQ(got.ugal_nonminimal_fraction, want.ugal_nonminimal_fraction);
  EXPECT_EQ(got.router_steps_total, want.router_steps_total);
  EXPECT_EQ(got.router_steps_skipped, want.router_steps_skipped);
}

// Runs `sim` on from the end of warmup until some terminals are idle while
// others have a packet to send and credits are in flight, so a snapshot
// taken there has every derived scheduling set partly filled. Returns the
// cycles advanced.
std::size_t run_to_mixed_state(SimInstance& sim) {
  for (std::size_t k = 0; k < 2000; ++k) {
    Network& net = sim.network();
    std::size_t idle = 0;
    for (std::size_t t = 0; t < net.num_terminals(); ++t) {
      if (net.terminal(static_cast<int>(t)).queued_packets() == 0) ++idle;
    }
    if (idle > 0 && idle < net.num_terminals() &&
        net.credits_in_flight() > 0) {
      return k;
    }
    sim.run_cycles(1);
  }
  ADD_FAILURE() << "no cycle with idle terminals and in-flight credits";
  return 0;
}

// A snapshot taken mid-run -- not at a phase boundary -- restored into a
// fresh instance must reproduce the uninterrupted run exactly,
// router_steps_skipped included: restore rebuilds the occupied, injecting
// and due sets and the receive-pending bits from the restored state.
TEST_P(SnapshotRestoreTest, MidRunRestoreMatchesUninterrupted) {
  const bool check = GetParam().check;
  const SimConfig cfg = GetParam().config();

  SimInstance warm(cfg);
  if (check) warm.checker().throw_on_violation();
  warm.warmup();
  const std::size_t extra = run_to_mixed_state(warm);
  SimSnapshot snap;
  warm.snapshot(snap);

  SimInstance uninterrupted(cfg);
  if (check) uninterrupted.checker().throw_on_violation();
  uninterrupted.warmup();
  uninterrupted.run_cycles(extra);
  const SimResult want = uninterrupted.measure_and_drain();

  SimInstance forked(cfg);
  if (check) forked.checker().throw_on_violation();
  forked.restore(snap);
  const SimResult got = forked.measure_and_drain();

  expect_identical(got, want);
  if (check) {
    EXPECT_EQ(forked.checker().checks_run(),
              uninterrupted.checker().checks_run());
    EXPECT_EQ(forked.checker().violations_seen(), 0u);
  }
}

// Snapshots are values: two restores from the same snapshot produce the
// same result twice (the first fork does not consume or corrupt it).
TEST_P(SnapshotRestoreTest, SnapshotIsReusableAcrossForks) {
  const SimConfig cfg = GetParam().config();

  SimInstance warm(cfg);
  warm.warmup();
  SimSnapshot snap;
  warm.snapshot(snap);

  SimInstance first(cfg);
  first.restore(snap);
  const SimResult a = first.measure_and_drain();

  SimInstance second(cfg);
  second.restore(snap);
  const SimResult b = second.measure_and_drain();

  expect_identical(a, b);
}

constexpr TopologyKind kMesh = TopologyKind::kMesh8x8;
constexpr TopologyKind kFbfly = TopologyKind::kFbfly4x4;
constexpr TopologyKind kTorus = TopologyKind::kTorus8x8;
constexpr TopologyKind kRing = TopologyKind::kRing16;
constexpr AllocatorKind kSepOf = AllocatorKind::kSeparableOutputFirst;
constexpr AllocatorKind kWf = AllocatorKind::kWavefront;
constexpr ArbiterKind kM = ArbiterKind::kMatrix;
constexpr SpecMode kNonspec = SpecMode::kNonSpeculative;
constexpr SpecMode kSpecGnt = SpecMode::kConservative;

const RestoreCase kRestoreCases[] = {
    {kMesh, false, 0.12},
    {kMesh, false, 0.02},
    {kMesh, true, 0.12},
    {kMesh, true, 0.02},
    {kFbfly, false, 0.12},
    {kFbfly, false, 0.02},
    {kFbfly, true, 0.12},
    {kFbfly, true, 0.02},
    {kTorus, true, 0.12},
    {kTorus, false, 0.12, kWf, kM, kNonspec},
    {kTorus, true, 0.02, kSepOf, kM, kSpecGnt},
    {kRing, true, 0.12},
    {kRing, true, 0.12, kWf, kM, kSpecGnt},
    {kRing, false, 0.12, kSepOf, kM, kNonspec},
    {kMesh, true, 0.12, kWf, kM, kNonspec},
    {kMesh, false, 0.12, kSepOf, kM, kSpecGnt},
    {kFbfly, true, 0.12, kSepOf, kM, kSpecGnt},
    {kFbfly, false, 0.02, kWf, kM, kNonspec},
};

INSTANTIATE_TEST_SUITE_P(
    Topologies, SnapshotRestoreTest, ::testing::ValuesIn(kRestoreCases),
    [](const ::testing::TestParamInfo<RestoreCase>& info) {
      return info.param.name();
    });

// Forks at different rates from one warm snapshot diverge (the rate knob
// works) while forks at the same rate coincide.
TEST(SnapshotFork, RateKnobForksDiverge) {
  SimConfig cfg = small_config(TopologyKind::kMesh8x8, false);
  SimInstance warm(cfg);
  warm.warmup();
  SimSnapshot snap;
  warm.snapshot(snap);

  const auto fork = [&](double rate) {
    SimInstance sim(cfg);
    sim.restore(snap);
    sim.set_injection_rate(rate);
    sim.run_cycles(300);
    return sim.measure_and_drain();
  };

  const SimResult low_a = fork(0.08);
  const SimResult low_b = fork(0.08);
  const SimResult high = fork(0.30);

  expect_identical(low_a, low_b);
  EXPECT_NE(low_a.offered_flit_rate, high.offered_flit_rate);
  EXPECT_NE(low_a.packets_measured, high.packets_measured);
}

// The canonical stream is deterministic: snapshotting the same state twice
// yields byte-identical buffers, and -- because every padded struct is
// serialized field by field (no indeterminate padding bytes ever reach the
// stream) -- two identically configured and warmed INSTANCES also produce
// byte-identical buffers. That cross-instance identity is what makes
// snapshots hashable and persistable (sweep/snapshot_io).
TEST(SnapshotFork, SnapshotBytesCanonicalAcrossInstances) {
  const SimConfig cfg = small_config(TopologyKind::kFbfly4x4, false);

  SimInstance a(cfg);
  a.warmup();
  SimSnapshot snap_a1;
  a.snapshot(snap_a1);
  SimSnapshot snap_a2;
  a.snapshot(snap_a2);
  EXPECT_EQ(snap_a1.network.bytes, snap_a2.network.bytes);
  EXPECT_EQ(snap_a1.driver, snap_a2.driver);

  SimInstance b(cfg);
  b.warmup();
  SimSnapshot snap_b;
  b.snapshot(snap_b);
  EXPECT_EQ(snap_a1.network.bytes, snap_b.network.bytes);
  EXPECT_EQ(snap_a1.driver, snap_b.driver);
}

}  // namespace
}  // namespace nocalloc::noc
