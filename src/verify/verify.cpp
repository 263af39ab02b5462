#include "verify/verify.hpp"

#include <map>
#include <mutex>
#include <tuple>

namespace nocalloc::verify {
namespace {

/// Static analysis has no live queues; UGAL's congestion estimates are
/// irrelevant because enumerate_injection_cases lists every decision the
/// oracle could steer it to.
class ZeroOracle final : public noc::CongestionOracle {
 public:
  std::size_t output_congestion(int /*router*/,
                                int /*out_port*/) const override {
    return 0;
  }
};

/// The fields relation_for_config() reads, and the memo keyed by them.
using RelationKey = std::tuple<noc::TopologyKind, std::size_t, bool>;

struct RelationMemo {
  std::mutex mu;
  std::map<RelationKey, TransitionRelation> relations;
};

RelationMemo& relation_memo() {
  static RelationMemo memo;
  return memo;
}

}  // namespace

VerifyReport verify_protocol(const noc::Topology& topo,
                             noc::RoutingFunction& routing,
                             const VcPartition& partition,
                             const VerifyOptions& options) {
  VerifyReport report;
  report.extraction =
      extract_protocol(topo, routing, partition.resource_classes());
  report.diagnostics = run_passes(report.extraction, partition, options);
  return report;
}

VerifyReport verify_sim_config(const noc::SimConfig& cfg,
                               const VerifyOptions& options) {
  const std::unique_ptr<noc::Topology> topo = noc::make_topology(cfg.topology);
  const ZeroOracle oracle;
  const std::unique_ptr<noc::RoutingFunction> routing =
      noc::make_routing(cfg, *topo, oracle);
  return verify_protocol(*topo, *routing,
                         noc::partition_for(cfg.topology, cfg.vcs_per_class),
                         options);
}

TransitionRelation relation_for_config(const noc::SimConfig& cfg) {
  const std::unique_ptr<noc::Topology> topo = noc::make_topology(cfg.topology);
  const ZeroOracle oracle;
  const std::unique_ptr<noc::RoutingFunction> routing =
      noc::make_routing(cfg, *topo, oracle);
  const VcPartition partition =
      noc::partition_for(cfg.topology, cfg.vcs_per_class);
  return extract_protocol(*topo, *routing, partition.resource_classes())
      .observed;
}

const TransitionRelation& cached_relation_for_config(
    const noc::SimConfig& cfg) {
  const RelationKey key{cfg.topology, cfg.vcs_per_class,
                        cfg.disable_datelines};
  RelationMemo& memo = relation_memo();
  {
    const std::lock_guard<std::mutex> lock(memo.mu);
    const auto it = memo.relations.find(key);
    if (it != memo.relations.end()) return it->second;
  }
  // Extract outside the lock; if another thread stored the same key in the
  // meantime, its (identical) relation is kept.
  TransitionRelation rel = relation_for_config(cfg);
  const std::lock_guard<std::mutex> lock(memo.mu);
  return memo.relations.try_emplace(key, std::move(rel)).first->second;
}

std::size_t cached_relation_count() {
  RelationMemo& memo = relation_memo();
  const std::lock_guard<std::mutex> lock(memo.mu);
  return memo.relations.size();
}

std::vector<ProtocolPoint> shipped_protocol_points() {
  std::vector<ProtocolPoint> points;
  const noc::TopologyKind kinds[] = {
      noc::TopologyKind::kMesh8x8,
      noc::TopologyKind::kFbfly4x4,
      noc::TopologyKind::kRing16,
      noc::TopologyKind::kTorus8x8,
  };
  for (const noc::TopologyKind kind : kinds) {
    for (const std::size_t c : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      ProtocolPoint p;
      p.cfg.topology = kind;
      p.cfg.vcs_per_class = c;
      p.name = noc::to_string(kind) + " C=" + std::to_string(c);
      points.push_back(std::move(p));
    }
  }
  return points;
}

}  // namespace nocalloc::verify
