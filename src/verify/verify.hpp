// Top-level entry points of the protocol static analysis: extract the CDG
// for a (topology, routing, VC partition) triple or a whole SimConfig, run
// the pass library, and feed the observed transition relation back into the
// runtime InvariantChecker so the static and dynamic checks share one
// source of truth. The nocverify CLI (tools/nocverify.cpp) is a thin shell
// over these.
#pragma once

#include <string>
#include <vector>

#include "noc/sim.hpp"
#include "verify/cdg.hpp"
#include "verify/passes.hpp"
#include "verify/relation.hpp"

namespace nocalloc::verify {

struct VerifyReport {
  ProtocolExtraction extraction;
  std::vector<VerifyDiagnostic> diagnostics;
};

/// Extracts the CDG by exhaustively driving `routing` and runs all passes
/// against `partition` (the relation the router's VC allocator enforces).
VerifyReport verify_protocol(const noc::Topology& topo,
                             noc::RoutingFunction& routing,
                             const VcPartition& partition,
                             const VerifyOptions& options = {});

/// Builds the topology/routing/partition of a SimConfig exactly as
/// SimInstance would (noc::make_topology / noc::make_routing /
/// noc::partition_for, with a zero congestion oracle) and verifies it.
VerifyReport verify_sim_config(const noc::SimConfig& cfg,
                               const VerifyOptions& options = {});

/// The resource-class transition relation the config's routing actually
/// emits (extraction only, no passes). Every SimInstance built with
/// check_invariants installs it on its InvariantChecker, arming the runtime
/// "route-legality" check.
TransitionRelation relation_for_config(const noc::SimConfig& cfg);

/// One shipped protocol configuration for sweeps (`nocverify --all`,
/// tests/test_verify_designs.cpp).
struct ProtocolPoint {
  std::string name;
  noc::SimConfig cfg;
};

/// Every shipped (topology, routing, VC-partition) combination: the four
/// topology kinds crossed with C in {1, 2, 4} VCs per class.
std::vector<ProtocolPoint> shipped_protocol_points();

}  // namespace nocalloc::verify
