// Latency-throughput characterization of the 8x8 mesh (the workload behind
// Fig. 13a-c), configurable from the command line.
//
// Usage: mesh_latency [vcs_per_class] [sw_alloc: sep_if|sep_of|wf]
//                     [spec: nonspec|spec_gnt|spec_req]
// Example: ./build/examples/mesh_latency 2 wf spec_req
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/parse.hpp"
#include "noc/sim.hpp"

using namespace nocalloc;
using namespace nocalloc::noc;

namespace {

std::size_t parse_vcs(const std::string& s) {
  const std::optional<std::size_t> v = parse_size(s, 1);
  if (v) return *v;
  std::fprintf(stderr, "bad vcs_per_class '%s' (expected an integer >= 1)\n",
               s.c_str());
  std::exit(1);
}

AllocatorKind parse_alloc(const std::string& s) {
  if (s == "sep_if") return AllocatorKind::kSeparableInputFirst;
  if (s == "sep_of") return AllocatorKind::kSeparableOutputFirst;
  if (s == "wf") return AllocatorKind::kWavefront;
  std::fprintf(stderr, "unknown allocator '%s'\n", s.c_str());
  std::exit(1);
}

SpecMode parse_spec(const std::string& s) {
  if (s == "nonspec") return SpecMode::kNonSpeculative;
  if (s == "spec_gnt") return SpecMode::kConservative;
  if (s == "spec_req") return SpecMode::kPessimistic;
  std::fprintf(stderr, "unknown speculation mode '%s'\n", s.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  SimConfig cfg;
  cfg.topology = TopologyKind::kMesh8x8;
  cfg.vcs_per_class = argc > 1 ? parse_vcs(argv[1]) : 1;
  cfg.sw_alloc = argc > 2 ? parse_alloc(argv[2])
                          : AllocatorKind::kSeparableInputFirst;
  cfg.spec = argc > 3 ? parse_spec(argv[3]) : SpecMode::kPessimistic;
  cfg.warmup_cycles = 2000;
  cfg.measure_cycles = 5000;
  cfg.drain_cycles = 5000;

  std::printf("8x8 mesh, V = 2x1x%zu, switch allocator %s, %s\n",
              cfg.vcs_per_class, to_string(cfg.sw_alloc).c_str(),
              to_string(cfg.spec).c_str());
  std::printf("%-10s %-12s %-12s %-12s %-10s\n", "offered", "latency",
              "network", "accepted", "p99");

  for (double rate = 0.05; rate <= 0.5; rate += 0.05) {
    cfg.injection_rate = rate;
    const SimResult r = run_simulation(cfg);
    std::printf("%-10.2f %-12.1f %-12.1f %-12.3f %-10.0f%s\n", rate,
                r.avg_packet_latency, r.avg_network_latency,
                r.accepted_flit_rate, r.p99_packet_latency,
                r.saturated ? "  saturated" : "");
    if (r.saturated) break;
  }
  return 0;
}
