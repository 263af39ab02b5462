// Routing functions (Sec. 3.2): dimension-order routing on the mesh and the
// UGAL algorithm on the flattened butterfly.
//
// The simulator uses lookahead routing: the route a head flit follows at
// router R is computed one hop upstream (or at the source terminal for the
// first hop), so routing logic never occupies a pipeline stage. Consequently
// adaptive decisions can only use information available at the upstream
// node -- which is why UGAL's minimal/non-minimal choice is made once, at
// the source, from local congestion estimates (UGAL-L).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "noc/topology.hpp"
#include "noc/types.hpp"

namespace nocalloc::noc {

/// Congestion information for UGAL's source-side path decision. Implemented
/// by the Network; returns the number of buffer slots currently claimed
/// downstream of the given output port (credits consumed across its VCs).
class CongestionOracle {
 public:
  virtual ~CongestionOracle() = default;
  virtual std::size_t output_congestion(int router, int out_port) const = 0;
};

/// One way a packet may legally enter the network: the per-packet routing
/// state at_injection() could have fixed (UGAL's intermediate router; -1
/// for routings without per-packet state) plus the resource class of the
/// VCs the packet starts in. The verify/ layer enumerates these to drive
/// route() over every path the routing function can ever produce.
struct InjectionCase {
  int intermediate_router = -1;
  std::size_t resource_class = 0;
};

class RoutingFunction {
 public:
  virtual ~RoutingFunction() = default;

  /// Called once when a packet reaches the head of its source queue.
  /// May fix per-packet routing state (e.g. UGAL's intermediate router)
  /// and returns the resource class of the VCs the packet starts in.
  virtual std::size_t at_injection(int src_router, Packet& pkt) = 0;

  /// Appends every injection decision this routing function could make for
  /// a packet from `src_router` to `dst_terminal` -- the exhaustive
  /// counterpart of one at_injection() call, used by the static
  /// channel-dependency analysis (src/verify/). The default covers every
  /// deterministic routing function by calling at_injection() on a scratch
  /// packet; adaptive/randomized functions (UGAL) override it to enumerate
  /// all decisions their RNG or congestion estimates could pick.
  virtual void enumerate_injection_cases(int src_router, int dst_terminal,
                                         std::vector<InjectionCase>& out);

  /// Computes the routing decision taken at `router` for a packet whose
  /// flits occupy VCs of resource class `arriving_class` there. Returns the
  /// output port and the resource class of the VCs to acquire at that
  /// output. May update pkt's phase state (e.g. leaving the intermediate).
  virtual RouteInfo route(int router, Packet& pkt,
                          std::size_t arriving_class) = 0;

  /// Saves or loads mutable routing state (UGAL's RNG stream and decision
  /// counters) for warm snapshot/restore. The oblivious routing functions
  /// are stateless, so the default is a no-op.
  virtual void state(StateArchive& ar) { static_cast<void>(ar); }
};

/// Dimension-order (x then y) routing on a mesh; a single resource class.
class DorMeshRouting final : public RoutingFunction {
 public:
  explicit DorMeshRouting(const MeshTopology& topo) : topo_(topo) {}

  std::size_t at_injection(int src_router, Packet& pkt) override;
  RouteInfo route(int router, Packet& pkt, std::size_t arriving_class) override;

 private:
  const MeshTopology& topo_;
};

/// Minimal (row-then-column) routing on the flattened butterfly; a single
/// resource class. Used as a baseline and as UGAL's minimal leg.
class MinimalFbflyRouting final : public RoutingFunction {
 public:
  explicit MinimalFbflyRouting(const FlattenedButterflyTopology& topo)
      : topo_(topo) {}

  std::size_t at_injection(int src_router, Packet& pkt) override;
  RouteInfo route(int router, Packet& pkt, std::size_t arriving_class) override;

  /// Next hop of the minimal row-then-column path from `router` to `dst`.
  /// Returns the terminal ejection port when already at the destination.
  RouteInfo minimal_hop(int router, int dst_router, int dst_terminal,
                        std::size_t klass) const;

 private:
  const FlattenedButterflyTopology& topo_;
};

/// Dimension-order (x then y), shortest-direction routing on a 2D torus
/// with per-dimension dateline VC classes (VcPartition::torus): packets use
/// x-pre/x-post classes (0/1) while traversing the x ring and y-pre/y-post
/// classes (2/3) in the y ring, advancing to the post class on the hop that
/// crosses the dimension's wrap link. Dimension order makes the class
/// sequence monotone in the 0 < 1 < 2 < 3 DAG, so the scheme is
/// deadlock-free (Sec. 4.2's dateline example, in full).
class DorTorusDatelineRouting final : public RoutingFunction {
 public:
  /// `disable_datelines` is a test-only fault injection: packets keep their
  /// per-dimension base class across wrap links, recreating the classic
  /// ring-per-dimension deadlock. nocverify must flag it statically and the
  /// runtime deadlock watchdog must trip on it; never enable it otherwise.
  explicit DorTorusDatelineRouting(const TorusTopology& topo,
                                   bool disable_datelines = false)
      : topo_(topo), disable_datelines_(disable_datelines) {}

  std::size_t at_injection(int src_router, Packet& pkt) override;
  RouteInfo route(int router, Packet& pkt, std::size_t arriving_class) override;

  /// Shortest direction from coordinate a to b around a ring of size k;
  /// ties go positive. Exposed for tests.
  bool positive_shorter(std::size_t a, std::size_t b) const;

 private:
  const TorusTopology& topo_;
  bool disable_datelines_;
};

/// Shortest-direction routing on a bidirectional ring with dateline VC
/// classes (Sec. 4.2's first example of resource classes): packets start in
/// resource class 0 and move to class 1 when their next hop crosses the
/// dateline (the wrap link), breaking the cyclic channel dependency that
/// would otherwise deadlock the ring. The class order is the strict chain
/// 0 -> 1, so a packet never returns to class 0.
class DatelineRingRouting final : public RoutingFunction {
 public:
  /// `disable_datelines` is a test-only fault injection: packets stay in
  /// class 0 across the wrap link, restoring the cyclic channel dependency
  /// the dateline exists to break. See DorTorusDatelineRouting.
  explicit DatelineRingRouting(const RingTopology& topo,
                               bool disable_datelines = false)
      : topo_(topo), disable_datelines_(disable_datelines) {}

  std::size_t at_injection(int src_router, Packet& pkt) override;
  RouteInfo route(int router, Packet& pkt, std::size_t arriving_class) override;

  /// Direction of the shortest path from router a to router b; ties go
  /// clockwise. Exposed for tests.
  bool clockwise_shorter(int a, int b) const;

 private:
  const RingTopology& topo_;
  bool disable_datelines_;
};

/// UGAL on the flattened butterfly (Sec. 3.2 / Singh's thesis): per packet,
/// the source compares queue-length x hop-count estimates of the minimal
/// path and one randomly chosen Valiant path, and routes non-minimally when
/// the minimal path looks congested. Non-minimal packets travel in resource
/// class 0 to the intermediate router and in class 1 afterwards; minimal
/// packets use class 1 throughout -- the two-phase partial order that makes
/// the scheme deadlock-free and that sparse VC allocation exploits (Fig. 4).
class UgalFbflyRouting final : public RoutingFunction {
 public:
  UgalFbflyRouting(const FlattenedButterflyTopology& topo,
                   const CongestionOracle& oracle, Rng rng);

  std::size_t at_injection(int src_router, Packet& pkt) override;
  RouteInfo route(int router, Packet& pkt, std::size_t arriving_class) override;

  /// UGAL's decision depends on the RNG and on live congestion, so the
  /// default single-call enumeration would under-approximate: this override
  /// lists the minimal path plus every non-degenerate Valiant intermediate.
  void enumerate_injection_cases(int src_router, int dst_terminal,
                                 std::vector<InjectionCase>& out) override;

  /// Bias towards the minimal path: the non-minimal leg is taken only when
  /// q_min * H_min exceeds q_non * H_non by more than this many flit-slots.
  /// Standard UGAL tuning; keeps random queue noise from causing misroutes
  /// at low load.
  void set_threshold(std::size_t t) { threshold_ = t; }

  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t nonminimal_decisions() const { return nonminimal_; }

  void state(StateArchive& ar) override {
    rng_.state(ar);
    ar.u64(decisions_);
    ar.u64(nonminimal_);
  }

 private:
  /// Network hop count of the minimal path between two routers (0-2).
  std::size_t minimal_hops(int a, int b) const;

  const FlattenedButterflyTopology& topo_;
  const CongestionOracle& oracle_;
  MinimalFbflyRouting minimal_;
  Rng rng_;
  std::size_t threshold_ = 3;
  std::uint64_t decisions_ = 0;
  std::uint64_t nonminimal_ = 0;
};

}  // namespace nocalloc::noc
