// Network assembly: instantiates routers, terminals and channels for a
// topology, wires credit loops, and advances the whole system cycle by
// cycle. Also implements the CongestionOracle UGAL reads at injection.
//
// step() is traffic-proportional: each pass touches only the consumers
// with work due, and every statistic stays bit-identical to a densely
// stepped run (DESIGN.md, "Traffic-proportional cycle loop"). One cycle:
//   allocate -- routers in the occupied set (a VC waiting or active);
//   generate -- every terminal polls its traffic source, ascending;
//   inject   -- terminals in the injecting set (a packet to send),
//               ascending, as UGAL draws from the shared routing RNG;
//   receive  -- routers, then terminals, in this cycle's DueSet slot (each
//               channel send marks its consumer at the arrival cycle).
// The router active set counts what a dense run would have stepped: it is
// recomputed at the end of each step as occupied | inflight (the union of
// the DueSet slots), and channel sends OR their consumer in during the
// allocate pass, which re-reads the live word, so a router woken mid-pass
// counts as visited that cycle. Active routers not visited count as
// router_steps_skipped. The terminal active set is the terminals' inflight
// set. Only the active sets are snapshot state; the occupied, injecting and
// due sets are rebuilt on restore. An attached InvariantChecker observes
// this schedule and changes none of it.
#pragma once

#include <memory>
#include <vector>

#include "noc/packet_arena.hpp"
#include "noc/router.hpp"
#include "noc/terminal.hpp"
#include "noc/topology.hpp"

namespace nocalloc::noc {

struct NetworkConfig {
  RouterConfig router;
  TrafficPattern pattern = TrafficPattern::kUniform;
  double request_rate = 0.0;  // request packets per terminal per cycle
  std::uint64_t seed = 1;
  /// Optional custom traffic: when set, builds the TrafficSource for each
  /// terminal (e.g. a TraceSource) and `pattern`/`request_rate` are unused.
  std::function<std::unique_ptr<TrafficSource>(int terminal)> source_factory;
};

/// Work-proportionality counters maintained by step().
struct NetworkPerfCounters {
  std::uint64_t cycles = 0;               // step() calls so far
  std::uint64_t router_steps_total = 0;   // routers x cycles
  std::uint64_t router_steps_skipped = 0; // router-steps skipped as quiescent
};

/// Warm-state snapshot of a Network: a flat byte buffer holding every piece
/// of mutable simulation state (arena slabs, ring buffers, allocator
/// priorities, credit counters, RNG streams, active-set flags). A value
/// type: copyable across threads, restorable into any Network built from an
/// identical (topology, config) pair -- a structure fingerprint at the head
/// of the buffer aborts mismatched restores. Process-lifetime only; never
/// persisted across builds.
struct NetworkSnapshot {
  std::vector<std::uint8_t> bytes;
};

class Network final : public CongestionOracle {
 public:
  /// `routing_factory` builds the routing function once the oracle (this
  /// network) exists; topology must outlive the network.
  using RoutingFactory = std::function<std::unique_ptr<RoutingFunction>(
      const CongestionOracle&)>;

  Network(const Topology& topo, const NetworkConfig& cfg,
          RoutingFactory routing_factory, Terminal::EjectCallback on_eject);

  /// Advances one cycle (allocate -> generate -> inject -> receive).
  void step();

  Cycle now() const { return now_; }
  const Topology& topology() const { return topo_; }

  Router& router(int id) { return *routers_[static_cast<std::size_t>(id)]; }
  Terminal& terminal(int id) {
    return *terminals_[static_cast<std::size_t>(id)];
  }
  std::size_t num_terminals() const { return terminals_.size(); }

  /// The packet storage every router/terminal of this network shares.
  PacketArena& arena() { return arena_; }
  const PacketArena& arena() const { return arena_; }

  /// Active-set and work counters (cycles simulated, router-steps skipped).
  const NetworkPerfCounters& perf() const { return perf_; }

  /// Starts/stops marking newly created packets as measured.
  void set_measuring(bool measuring);

  /// Enables/disables request generation at every terminal.
  void set_generation_enabled(bool enabled);

  /// Updates every terminal's offered request rate (packets per cycle).
  /// Returns false when the traffic sources have no rate knob (trace
  /// replay). The knob is what makes warm forking useful: restore a warm
  /// snapshot, set the fork's load point, keep simulating.
  bool set_request_rate(double rate);

  /// Pre-sizes the packet arena and every terminal's source queues for a
  /// window of `cycles` cycles at offered request rate `rate` (requests per
  /// terminal per cycle). The bound is 2x the expected generation volume --
  /// requests plus their replies -- so even a fully saturated window, where
  /// source backlog grows without bound, performs no heap allocations.
  /// Construction-time use only (the reservation itself allocates).
  void reserve_steady_state(double rate, std::size_t cycles);

  /// Captures the complete mutable state into `out` (replacing its
  /// contents). The snapshot composes with SimInstance-level state (latency
  /// accumulators, checker counters), which the caller owns.
  void snapshot(NetworkSnapshot& out) const;

  /// Restores state captured by snapshot() on a structurally identical
  /// network. Ring buffers and arena slabs are pre-grown to their saved
  /// high-water capacities, so the post-restore steady state performs no
  /// heap allocations.
  void restore(const NetworkSnapshot& snap);

  /// Total flits injected by all terminals so far.
  std::uint64_t flits_injected() const;

  /// Total flits ejected at all terminals so far.
  std::uint64_t flits_ejected() const;

  /// Attaches a protocol checker: every router reports allocation results to
  /// it, and the network calls its after_step() at the end of every step().
  /// Attaching one changes no network state. Null detaches. The checker
  /// must outlive the network (or be detached).
  void attach_invariant_checker(InvariantChecker* checker);

  /// Routes every router's allocators through their byte-loop reference
  /// implementations (the differential oracle) instead of the single-word
  /// kernels; results are bit-identical either way.
  void set_reference_path(bool ref);

  /// Flits still inside routers or source queues (drain check).
  std::size_t in_flight() const;

  /// Credits on their way back upstream, on every credit channel.
  std::size_t credits_in_flight() const;

  // CongestionOracle:
  std::size_t output_congestion(int router, int out_port) const override;

 private:
  friend class InvariantChecker;  // walks wiring records for conservation

  /// The one field list behind snapshot() and restore().
  void state(StateArchive& ar);

  /// One inter-router link with the channels that realise it, kept so the
  /// invariant checker can audit the credit loop end to end.
  struct LinkWiring {
    LinkSpec spec;
    Channel<Flit>* flits = nullptr;
    Channel<Credit>* credits = nullptr;
  };

  /// The four channels between a terminal and its router port.
  struct TerminalWiring {
    int terminal = -1;
    int router = -1;
    int port = -1;
    Channel<Flit>* inj_flits = nullptr;     // terminal -> router
    Channel<Credit>* inj_credits = nullptr; // router -> terminal
    Channel<Flit>* ej_flits = nullptr;      // router -> terminal
    Channel<Credit>* ej_credits = nullptr;  // terminal -> router
  };

  const Topology& topo_;
  PacketArena arena_;  // must outlive routers/terminals (handle consumers)
  std::unique_ptr<RoutingFunction> routing_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Terminal>> terminals_;
  // Channel storage; unique_ptrs keep addresses stable while wiring.
  std::vector<std::unique_ptr<Channel<Flit>>> flit_channels_;
  std::vector<std::unique_ptr<Channel<Credit>>> credit_channels_;
  std::vector<LinkWiring> link_wirings_;
  std::vector<TerminalWiring> terminal_wirings_;
  // Consumer sets, bit i of word i / 64 for router (terminal) i. Channels,
  // routers and terminals hold pointers into these words and the due sets,
  // so all are sized once in the constructor and never resized. Snapshots
  // store one byte per consumer of the active sets; the rest is derived.
  std::vector<bits::Word> router_active_;
  std::vector<bits::Word> terminal_active_;
  std::vector<bits::Word> router_occupied_;     // a waiting or active VC
  std::vector<bits::Word> terminal_injecting_;  // a packet to inject
  DueSet router_due_;    // arrivals per cycle, routers
  DueSet terminal_due_;  // arrivals per cycle, terminals
  NetworkPerfCounters perf_;
  InvariantChecker* checker_ = nullptr;
  std::uint64_t next_packet_id_ = 1;
  Cycle now_ = 0;
};

}  // namespace nocalloc::noc
