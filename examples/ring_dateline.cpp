// Dateline VC classes on a 16-node ring -- the paper's canonical example of
// resource classes (Sec. 4.2), implemented end to end: the topology wraps,
// the routing function advances packets from the pre- to the post-dateline
// class on the wrap link, and the VC partition statically forbids the
// reverse transition. Under tornado traffic (every packet travels just
// under half the ring) the wrap links are fully loaded, which is exactly
// the condition where an unprotected ring deadlocks.
//
// Usage: ring_dateline [injection_rate]
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "common/parse.hpp"
#include "noc/sim.hpp"

using namespace nocalloc;
using namespace nocalloc::noc;

int main(int argc, char** argv) {
  double rate = 0.15;
  if (argc > 1) {
    const std::optional<double> parsed = parse_rate(argv[1]);
    if (!parsed) {
      std::fprintf(stderr, "bad injection_rate '%s'\n", argv[1]);
      return 1;
    }
    rate = *parsed;
  }

  // The static transition structure sparse VC allocation exploits:
  const VcPartition part = VcPartition::dateline(2, 1);
  std::printf("dateline partition: M=%zu x R=%zu x C=%zu, %zu of %zu "
              "VC-to-VC transitions legal\n\n",
              part.message_classes(), part.resource_classes(),
              part.vcs_per_class(), part.legal_transition_count(),
              part.total_vcs() * part.total_vcs());

  std::printf("%-10s %-10s %-12s %-12s\n", "pattern", "offered", "latency",
              "accepted");
  for (TrafficPattern pattern :
       {TrafficPattern::kUniform, TrafficPattern::kTornado}) {
    SimConfig cfg;
    cfg.topology = TopologyKind::kRing16;
    cfg.vcs_per_class = 1;
    cfg.pattern = pattern;
    cfg.injection_rate = rate;
    cfg.warmup_cycles = 2000;
    cfg.measure_cycles = 5000;
    cfg.drain_cycles = 5000;
    const SimResult r = run_simulation(cfg);
    std::printf("%-10s %-10.2f %-12.1f %-12.3f%s\n",
                to_string(pattern).c_str(), rate, r.avg_packet_latency,
                r.accepted_flit_rate, r.saturated ? "  saturated" : "");
  }

  std::printf("\ntornado loads one ring direction maximally; the run "
              "completing at all demonstrates\nthe dateline classes break "
              "the wrap-around channel-dependency cycle.\n");
  return 0;
}
