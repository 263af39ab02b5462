// Simulation driver (Sec. 3.2): builds the network for one of the paper's
// design points, runs warm-up / measurement / drain phases, and reports
// average packet latency and accepted throughput.
//
// The phases are exposed individually through SimInstance so sweep engines
// can compose them: warm up once per design point, snapshot the warm state,
// and fork it across load points (restore + set_injection_rate + a short
// fork warmup + measure), amortizing the long cold warmup across a whole
// latency-vs-load curve.
#pragma once

#include <string>

#include "common/stats.hpp"
#include "noc/invariants.hpp"
#include "noc/network.hpp"

namespace nocalloc::noc {

enum class TopologyKind {
  kMesh8x8,    // P = 5, M=2 x R=1 x C, dimension-order routing
  kFbfly4x4,   // P = 10 (c = 4), M=2 x R=2 x C, UGAL routing
  // Extensions beyond the paper's two testbeds, exercising the
  // resource-class machinery of Sec. 4.2 on its canonical dateline example:
  kRing16,     // 16-node bidirectional ring, P = 3, M=2 x R=2 x C
  kTorus8x8,   // 8x8 torus, P = 5, M=2 x R=4 x C (per-dimension datelines)
};

std::string to_string(TopologyKind kind);

struct SimConfig {
  TopologyKind topology = TopologyKind::kMesh8x8;
  std::size_t vcs_per_class = 1;  // C in the paper's M x R x C notation

  AllocatorKind vc_alloc = AllocatorKind::kSeparableInputFirst;
  ArbiterKind vc_arb = ArbiterKind::kRoundRobin;
  AllocatorKind sw_alloc = AllocatorKind::kSeparableInputFirst;
  ArbiterKind sw_arb = ArbiterKind::kRoundRobin;
  SpecMode spec = SpecMode::kPessimistic;
  std::size_t buffer_depth = 8;

  /// UGAL bias towards the minimal path (fbfly only); see
  /// UgalFbflyRouting::set_threshold.
  std::size_t ugal_threshold = 3;

  TrafficPattern pattern = TrafficPattern::kUniform;
  /// Offered load in flits per terminal per cycle (the paper's x-axis).
  /// Each request transaction eventually injects six flits (request +
  /// reply), three per side on average, so the per-terminal request rate
  /// is injection_rate / 6.
  double injection_rate = 0.1;

  std::size_t warmup_cycles = 10000;
  std::size_t measure_cycles = 20000;
  std::size_t drain_cycles = 30000;
  std::uint64_t seed = 1;

  /// Runs the full simulation under an attached InvariantChecker (credit and
  /// flit conservation, VC protocol, allocation legality, deadlock watchdog).
  /// Violations print and abort. Roughly doubles simulation time.
  bool check_invariants = false;

  /// Test-only fault injection (ring/torus): routing keeps packets in their
  /// pre-dateline class across wrap links, reintroducing the cyclic channel
  /// dependency the datelines exist to break. nocverify must flag the
  /// resulting CDG cycle statically and the deadlock watchdog must trip on
  /// it dynamically; never set this outside those cross-checks.
  bool disable_datelines = false;
};

struct SimResult {
  double avg_packet_latency = 0.0;   // creation to tail ejection
  double avg_network_latency = 0.0;  // head injection to tail ejection
  double p99_packet_latency = 0.0;
  std::size_t packets_measured = 0;
  double offered_flit_rate = 0.0;   // per terminal per cycle
  double accepted_flit_rate = 0.0;  // measured-phase ejections
  bool saturated = false;  // accepted < 0.92 x offered flit rate
  // Aggregate router counters (summed over all routers).
  std::uint64_t spec_grants_used = 0;
  std::uint64_t misspeculations = 0;
  /// Fraction of UGAL decisions that chose the non-minimal path (fbfly
  /// only; 0 on the mesh).
  double ugal_nonminimal_fraction = 0.0;
  // Work-proportionality counters (active-set scheduler + packet arena).
  std::uint64_t cycles_simulated = 0;      // warmup + measure + drain
  std::uint64_t router_steps_total = 0;    // routers x cycles
  std::uint64_t router_steps_skipped = 0;  // skipped as quiescent
  std::size_t arena_high_water = 0;        // peak live packets in the arena
};

/// Builds the V partition for a design point: M = 2 message classes, R = 1
/// (mesh) or 2 (fbfly) resource classes, C VCs per class.
VcPartition partition_for(TopologyKind kind, std::size_t vcs_per_class);

/// Instantiates the concrete topology of a kind (mesh 8x8, fbfly 4x4 c=4,
/// ring 16, torus 8x8). Shared by SimInstance and the static protocol
/// analysis (src/verify/), so both always agree on the network shape.
std::unique_ptr<Topology> make_topology(TopologyKind kind);

/// Instantiates the routing function for `cfg` over `topo`, which must have
/// been built by make_topology(cfg.topology) (the routing functions bind to
/// the concrete topology types). `oracle` feeds UGAL's congestion estimates;
/// pass a zero oracle for static analysis. If `ugal_out` is non-null it
/// receives the UGAL instance (fbfly) or nullptr (all other kinds).
std::unique_ptr<RoutingFunction> make_routing(
    const SimConfig& cfg, const Topology& topo, const CongestionOracle& oracle,
    UgalFbflyRouting** ugal_out = nullptr);

/// Warm-state snapshot of a SimInstance: the network's byte buffer plus the
/// driver-side state (reply-id counter, measuring flag, invariant-checker
/// counters). A value type, copyable across sweep-shard threads. The offered
/// injection rate is deliberately NOT captured, so one warm snapshot forks
/// across load points.
struct SimSnapshot {
  NetworkSnapshot network;
  std::vector<std::uint8_t> driver;
};

/// One simulation, with its phases exposed so sweep engines can compose
/// them. Owns the topology, the network, the invariant checker, and the
/// latency accumulators; non-copyable (the network holds pointers into it).
class SimInstance {
 public:
  /// Aborts with a message naming V and P when the design point exceeds the
  /// one-word sparse allocator form (V = M*R*C > 64 VCs or P > 64 ports).
  explicit SimInstance(const SimConfig& cfg);
  SimInstance(const SimInstance&) = delete;
  SimInstance& operator=(const SimInstance&) = delete;

  const SimConfig& config() const { return cfg_; }
  Network& network() { return *net_; }
  const Network& network() const { return *net_; }
  InvariantChecker& checker() { return checker_; }

  /// Advances `n` cycles without measuring.
  void run_cycles(std::size_t n);

  /// The cold warmup phase (cfg.warmup_cycles).
  void warmup() { run_cycles(cfg_.warmup_cycles); }

  /// Re-points the offered load (flits per terminal per cycle) for
  /// subsequent cycles; used after restore() to fork a warm state across
  /// load points.
  void set_injection_rate(double rate);

  /// Measurement + drain phases. Resets the latency accumulators on entry,
  /// so the result covers exactly this call's measurement window (which is
  /// what makes accumulators snapshot-free: a fork never resumes a
  /// half-finished measurement).
  SimResult measure_and_drain();

  /// Captures / restores the complete warm state. restore() may be called
  /// on any SimInstance built from the same SimConfig shape (rates may
  /// differ); the restored instance then evolves bit-identically to the
  /// snapshotted one under the same subsequent calls.
  void snapshot(SimSnapshot& out) const;
  void restore(const SimSnapshot& snap);

 private:
  /// The driver part of snapshot() and restore(): one field list.
  void state(StateArchive& ar);

  SimConfig cfg_;
  std::unique_ptr<Topology> topo_;
  InvariantChecker checker_;
  std::unique_ptr<Network> net_;
  UgalFbflyRouting* ugal_ = nullptr;
  StatAccumulator packet_latency_;
  StatAccumulator network_latency_;
  Histogram latency_hist_{4096};
  bool measuring_ = false;
  std::uint64_t reply_id_ = 1ull << 62;  // id space disjoint from requests
};

/// Runs one simulation to completion.
SimResult run_simulation(const SimConfig& cfg);

}  // namespace nocalloc::noc
