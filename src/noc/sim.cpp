#include "noc/sim.hpp"

#include <memory>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "noc/invariants.hpp"
#include "verify/verify.hpp"

namespace nocalloc::noc {

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kMesh8x8:
      return "mesh";
    case TopologyKind::kFbfly4x4:
      return "fbfly";
    case TopologyKind::kRing16:
      return "ring";
    case TopologyKind::kTorus8x8:
      return "torus";
  }
  NOCALLOC_CHECK(false);
}

VcPartition partition_for(TopologyKind kind, std::size_t vcs_per_class) {
  switch (kind) {
    case TopologyKind::kMesh8x8:
      return VcPartition::mesh(2, vcs_per_class);
    case TopologyKind::kFbfly4x4:
      return VcPartition::fbfly(2, vcs_per_class);
    case TopologyKind::kRing16:
      return VcPartition::dateline(2, vcs_per_class);
    case TopologyKind::kTorus8x8:
      return VcPartition::torus(2, vcs_per_class);
  }
  NOCALLOC_CHECK(false);
}

std::unique_ptr<Topology> make_topology(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kMesh8x8:
      return std::make_unique<MeshTopology>(8);
    case TopologyKind::kFbfly4x4:
      return std::make_unique<FlattenedButterflyTopology>(4, 4);
    case TopologyKind::kRing16:
      return std::make_unique<RingTopology>(16);
    case TopologyKind::kTorus8x8:
      return std::make_unique<TorusTopology>(8);
  }
  NOCALLOC_CHECK(false);
}

std::unique_ptr<RoutingFunction> make_routing(const SimConfig& cfg,
                                              const Topology& topo,
                                              const CongestionOracle& oracle,
                                              UgalFbflyRouting** ugal_out) {
  if (ugal_out != nullptr) *ugal_out = nullptr;
  switch (cfg.topology) {
    case TopologyKind::kMesh8x8:
      return std::make_unique<DorMeshRouting>(
          static_cast<const MeshTopology&>(topo));
    case TopologyKind::kRing16:
      return std::make_unique<DatelineRingRouting>(
          static_cast<const RingTopology&>(topo), cfg.disable_datelines);
    case TopologyKind::kTorus8x8:
      return std::make_unique<DorTorusDatelineRouting>(
          static_cast<const TorusTopology&>(topo), cfg.disable_datelines);
    case TopologyKind::kFbfly4x4: {
      auto routing = std::make_unique<UgalFbflyRouting>(
          static_cast<const FlattenedButterflyTopology&>(topo), oracle,
          Rng(cfg.seed ^ 0xCAFEF00Dull));
      routing->set_threshold(cfg.ugal_threshold);
      if (ugal_out != nullptr) *ugal_out = routing.get();
      return routing;
    }
  }
  NOCALLOC_CHECK(false);
}

SimInstance::SimInstance(const SimConfig& cfg) : cfg_(cfg) {
  // The accepted rate divides by the window length.
  if (cfg_.measure_cycles == 0) {
    fail("config key 'measure_cycles' must be >= 1 (got 0)");
  }
  topo_ = make_topology(cfg_.topology);
  NOCALLOC_CHECK(topo_ != nullptr);

  NetworkConfig net_cfg;
  net_cfg.router.ports = topo_->ports();
  net_cfg.router.partition = partition_for(cfg_.topology, cfg_.vcs_per_class);
  const VcPartition& part = net_cfg.router.partition;
  if (part.total_vcs() > bits::kWordBits ||
      net_cfg.router.ports > bits::kWordBits) {
    fail("unsupported design point: " + to_string(cfg_.topology) +
         " with V = " + std::to_string(part.message_classes()) + "*" +
         std::to_string(part.resource_classes()) + "*" +
         std::to_string(part.vcs_per_class()) + " = " +
         std::to_string(part.total_vcs()) + " VCs per port and P = " +
         std::to_string(net_cfg.router.ports) +
         " ports; the allocators need V <= 64 and P <= 64");
  }
  net_cfg.router.buffer_depth = cfg_.buffer_depth;
  net_cfg.router.vc_alloc_kind = cfg_.vc_alloc;
  net_cfg.router.vc_arb = cfg_.vc_arb;
  net_cfg.router.sw_alloc_kind = cfg_.sw_alloc;
  net_cfg.router.sw_arb = cfg_.sw_arb;
  net_cfg.router.spec = cfg_.spec;
  net_cfg.pattern = cfg_.pattern;
  // Each transaction contributes six flits network-wide, three per side on
  // average, so the request rate is one sixth of the offered flit rate.
  net_cfg.request_rate = cfg_.injection_rate / 6.0;
  net_cfg.seed = cfg_.seed;

  Network::RoutingFactory factory =
      [&](const CongestionOracle& oracle) -> std::unique_ptr<RoutingFunction> {
    return make_routing(cfg_, *topo_, oracle, &ugal_);
  };

  Terminal::EjectCallback on_eject = [this](const Packet& pkt, Cycle now) {
    if (is_request(pkt.type)) {
      // The destination answers on the next cycle (Sec. 3.2); the reply
      // inherits the measured flag so transactions are tracked end to end.
      Packet reply = make_reply(pkt, now, reply_id_++);
      reply.measured = pkt.measured && measuring_;
      net_->terminal(pkt.dst_terminal).enqueue_reply(reply);
    }
    if (pkt.measured) {
      packet_latency_.add(static_cast<double>(now - pkt.created));
      network_latency_.add(static_cast<double>(now - pkt.injected));
      latency_hist_.add(static_cast<std::size_t>(now - pkt.created));
    }
  };

  net_ = std::make_unique<Network>(*topo_, net_cfg, factory, on_eject);
  // A checked run also audits every lookahead route against the relation
  // the static analysis extracts from this config's routing function.
  if (cfg_.check_invariants) {
    checker_.set_transition_relation(verify::relation_for_config(cfg_));
    net_->attach_invariant_checker(&checker_);
  }
}

void SimInstance::run_cycles(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) net_->step();
}

void SimInstance::set_injection_rate(double rate) {
  cfg_.injection_rate = rate;
  net_->set_request_rate(rate / 6.0);
}

SimResult SimInstance::measure_and_drain() {
  packet_latency_.reset();
  network_latency_.reset();
  latency_hist_.reset();

  // Measurement window: packets created from here on are tracked; the
  // accepted throughput is the flit injection rate the terminals sustain.
  net_->set_measuring(true);
  measuring_ = true;
  const std::uint64_t flits_before = net_->flits_injected();
  run_cycles(cfg_.measure_cycles);
  const std::uint64_t flits_after = net_->flits_injected();
  net_->set_measuring(false);
  measuring_ = false;

  // Drain: unmeasured traffic keeps flowing so measured packets finish
  // under steady-state conditions.
  run_cycles(cfg_.drain_cycles);

  // Every drained packet must have returned its arena slot; a leak here
  // would eventually exhaust the arena in long sweeps.
  if (net_->in_flight() == 0) NOCALLOC_DCHECK(net_->arena().live() == 0);

  SimResult result;
  result.avg_packet_latency = packet_latency_.mean();
  result.avg_network_latency = network_latency_.mean();
  result.p99_packet_latency =
      static_cast<double>(latency_hist_.quantile(0.99));
  result.packets_measured = packet_latency_.count();
  result.offered_flit_rate = cfg_.injection_rate;
  result.accepted_flit_rate =
      static_cast<double>(flits_after - flits_before) /
      (static_cast<double>(cfg_.measure_cycles) *
       static_cast<double>(net_->num_terminals()));
  // Saturation: sources cannot inject at the offered rate (queues grow
  // without bound). The 8% slack absorbs the sampling noise of short
  // measurement windows; genuinely saturated runs fall far below it.
  result.saturated =
      result.accepted_flit_rate < 0.92 * result.offered_flit_rate;

  for (std::size_t r = 0; r < topo_->num_routers(); ++r) {
    const RouterStats& rs = net_->router(static_cast<int>(r)).stats();
    result.spec_grants_used += rs.spec_grants_used;
    result.misspeculations += rs.misspeculations;
  }
  if (ugal_ != nullptr && ugal_->decisions() > 0) {
    result.ugal_nonminimal_fraction =
        static_cast<double>(ugal_->nonminimal_decisions()) /
        static_cast<double>(ugal_->decisions());
  }
  result.cycles_simulated = net_->perf().cycles;
  result.router_steps_total = net_->perf().router_steps_total;
  result.router_steps_skipped = net_->perf().router_steps_skipped;
  result.arena_high_water = net_->arena().high_water();
  return result;
}

void SimInstance::snapshot(SimSnapshot& out) const {
  net_->snapshot(out.network);
  out.driver.clear();
  StateArchive ar = StateArchive::saving_to(out.driver);
  // A saving archive only reads the state it visits.
  const_cast<SimInstance*>(this)->state(ar);
}

void SimInstance::restore(const SimSnapshot& snap) {
  net_->restore(snap.network);
  StateArchive ar = StateArchive::loading_from(snap.driver);
  state(ar);
  NOCALLOC_CHECK(ar.remaining() == 0);
}

void SimInstance::state(StateArchive& ar) {
  ar.tag(0x51A05AFEu);
  ar.pod(measuring_);
  ar.u64(reply_id_);
  checker_.state(ar);
}

SimResult run_simulation(const SimConfig& cfg) {
  SimInstance sim(cfg);
  sim.warmup();
  return sim.measure_and_drain();
}

}  // namespace nocalloc::noc
