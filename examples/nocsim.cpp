// Config-file simulation runner (BookSim-style):
//
//   nocsim [config-file] [key=value ...]      one run, human output
//
// Keys are documented in src/noc/config.hpp. check_invariants=true runs the
// whole simulation under the runtime protocol checker (credit/flit
// conservation, VC state machines, allocation legality, route legality
// against the statically verified VC-class transitions, deadlock watchdog);
// violations print their location and abort. Latency-vs-load curves come
// from tools/nocsweep. Examples:
//   ./build/examples/nocsim
//   ./build/examples/nocsim mesh.cfg injection_rate=0.3 sw_alloc=wf
//   ./build/examples/nocsim check_invariants=true spec=spec_gnt
#include <cstdio>
#include <fstream>
#include <string>

#include "noc/config.hpp"

using namespace nocalloc;
using namespace nocalloc::noc;

namespace {

void print_result(const SimConfig& cfg, const SimResult& r) {
  std::printf("%s\n", to_config_string(cfg).c_str());
  std::printf("avg packet latency:   %.2f cycles\n", r.avg_packet_latency);
  std::printf("avg network latency:  %.2f cycles\n", r.avg_network_latency);
  std::printf("p99 packet latency:   %.0f cycles\n", r.p99_packet_latency);
  std::printf("packets measured:     %zu\n", r.packets_measured);
  std::printf("offered / accepted:   %.3f / %.3f flits/terminal/cycle%s\n",
              r.offered_flit_rate, r.accepted_flit_rate,
              r.saturated ? "  (SATURATED)" : "");
  if (r.spec_grants_used + r.misspeculations > 0) {
    std::printf("speculation:          %llu grants used, %llu wasted\n",
                static_cast<unsigned long long>(r.spec_grants_used),
                static_cast<unsigned long long>(r.misspeculations));
  }
  if (r.ugal_nonminimal_fraction > 0) {
    std::printf("UGAL non-minimal:     %.1f%%\n",
                100 * r.ugal_nonminimal_fraction);
  }
}

}  // namespace

int main(int argc, char** argv) {
  SimConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.find('=') != std::string::npos) {
      apply_override(cfg, arg);
    } else {
      std::ifstream file(arg);
      if (!file) {
        std::fprintf(stderr, "cannot open config file %s\n", arg.c_str());
        return 1;
      }
      cfg = parse_sim_config(file, cfg);
    }
  }
  print_result(cfg, run_simulation(cfg));
  return 0;
}
