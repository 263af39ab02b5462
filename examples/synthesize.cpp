// Command-line front end to the hardware cost model: synthesize any VC or
// switch allocator design point and print delay/area/power.
//
// Usage:
//   synthesize vc <ports> <M> <R> <C> <sep_if|sep_of|wf> <rr|m> <dense|sparse> [out.v]
//   synthesize sa <ports> <V> <sep_if|sep_of|wf> <rr|m> <nonspec|spec_gnt|spec_req> [out.v]
// The optional final argument writes the generated design as synthesizable
// structural Verilog (functionally exact; see tests/test_netlist_equivalence).
// Examples:
//   ./build/examples/synthesize vc 5 2 1 2 wf rr sparse
//   ./build/examples/synthesize sa 10 8 sep_if rr spec_req sa.v
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include "common/parse.hpp"
#include "hw/synthesis.hpp"
#include "hw/verilog_export.hpp"

using namespace nocalloc;
using namespace nocalloc::hw;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  synthesize vc <ports> <M> <R> <C> <sep_if|sep_of|wf> <rr|m> "
      "<dense|sparse> [out.v]\n"
      "  synthesize sa <ports> <V> <sep_if|sep_of|wf> <rr|m> "
      "<nonspec|spec_gnt|spec_req> [out.v]\n");
  std::exit(1);
}

void write_verilog(const Netlist& nl, const std::string& module,
                   const char* path) {
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  file << export_verilog(nl, module);
  std::printf("wrote structural Verilog to %s\n", path);
}

/// A whole integer >= 1 (parse_size), or the usage message.
std::size_t parse_count(const char* s) {
  const std::optional<std::size_t> v = parse_size(s, 1);
  if (!v) {
    std::fprintf(stderr, "bad count '%s' (expected an integer >= 1)\n", s);
    usage();
  }
  return *v;
}

AllocatorKind parse_kind(const std::string& s) {
  if (s == "sep_if") return AllocatorKind::kSeparableInputFirst;
  if (s == "sep_of") return AllocatorKind::kSeparableOutputFirst;
  if (s == "wf") return AllocatorKind::kWavefront;
  usage();
}

ArbiterKind parse_arb(const std::string& s) {
  if (s == "rr") return ArbiterKind::kRoundRobin;
  if (s == "m") return ArbiterKind::kMatrix;
  usage();
}

void report(const SynthesisResult& r) {
  if (!r.ok) {
    std::printf("synthesis FAILED: %zu cells exceed the resource limit "
                "(modelling DC out-of-memory, Sec. 4.3.1)\n",
                r.node_count);
    return;
  }
  std::printf("cells: %zu\n", r.node_count);
  std::printf("minimum cycle time: %.3f ns  (%.0f MHz)\n", r.delay_ns,
              1000.0 / r.delay_ns);
  std::printf("cell area: %.0f um^2\n", r.area_um2);
  std::printf("dynamic power @ fmax, activity 0.5: %.2f mW\n", r.power_mw);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];

  if (mode == "vc" && (argc == 9 || argc == 10)) {
    VcAllocGenConfig cfg;
    cfg.ports = parse_count(argv[2]);
    const std::size_t m = parse_count(argv[3]);
    const std::size_t r = parse_count(argv[4]);
    const std::size_t c = parse_count(argv[5]);
    cfg.partition = r == 2 ? VcPartition::fbfly(m, c) : VcPartition(m, r, c);
    cfg.kind = parse_kind(argv[6]);
    cfg.arb = parse_arb(argv[7]);
    const std::string layout = argv[8];
    if (layout != "sparse" && layout != "dense") usage();
    cfg.sparse = layout == "sparse";
    std::printf("VC allocator: P=%zu, V=%zux%zux%zu, %s/%s, %s\n", cfg.ports,
                m, r, c, to_string(cfg.kind).c_str(),
                to_string(cfg.arb).c_str(), argv[8]);
    report(synthesize_vc_allocator(cfg));
    if (argc == 10) {
      Netlist nl;
      gen_vc_allocator(nl, cfg);
      write_verilog(nl, "vc_allocator", argv[9]);
    }
    return 0;
  }

  if (mode == "sa" && (argc == 7 || argc == 8)) {
    SaGenConfig cfg;
    cfg.ports = parse_count(argv[2]);
    cfg.vcs = parse_count(argv[3]);
    cfg.kind = parse_kind(argv[4]);
    cfg.arb = parse_arb(argv[5]);
    const std::string spec = argv[6];
    cfg.spec = spec == "nonspec"    ? SpecMode::kNonSpeculative
               : spec == "spec_gnt" ? SpecMode::kConservative
               : spec == "spec_req" ? SpecMode::kPessimistic
                                    : (usage(), SpecMode::kNonSpeculative);
    std::printf("switch allocator: P=%zu, V=%zu, %s/%s, %s\n", cfg.ports,
                cfg.vcs, to_string(cfg.kind).c_str(),
                to_string(cfg.arb).c_str(), spec.c_str());
    report(synthesize_switch_allocator(cfg));
    if (argc == 8) {
      Netlist nl;
      gen_switch_allocator(nl, cfg);
      write_verilog(nl, "switch_allocator", argv[7]);
    }
    return 0;
  }

  usage();
}
