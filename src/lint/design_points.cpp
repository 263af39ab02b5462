#include "lint/design_points.hpp"

namespace nocalloc::hw {
namespace {

/// Arbiter kinds that matter for an allocator architecture: the wavefront
/// has no internal arbiters, so only one entry is generated for it.
std::vector<ArbiterKind> arbiters_for(AllocatorKind kind) {
  if (kind == AllocatorKind::kWavefront) return {ArbiterKind::kRoundRobin};
  return {ArbiterKind::kRoundRobin, ArbiterKind::kMatrix};
}

}  // namespace

std::vector<VcDesignPoint> paper_vc_design_points(bool include_large) {
  struct Testbed {
    const char* name;
    std::size_t ports;
    VcPartition (*partition)(std::size_t, std::size_t);
  };
  const Testbed testbeds[] = {
      {"mesh", 5, &VcPartition::mesh},
      {"fbfly", 10, &VcPartition::fbfly},
  };

  std::vector<VcDesignPoint> points;
  for (const Testbed& tb : testbeds) {
    for (std::size_t c : {1u, 2u, 4u}) {
      for (AllocatorKind kind :
           {AllocatorKind::kSeparableInputFirst,
            AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
        for (ArbiterKind arb : arbiters_for(kind)) {
          for (bool sparse : {true, false}) {
            // Dense variants only on the small mesh points: the big dense
            // wavefronts replicate a monolithic PV x PV array and exist
            // solely to motivate the sparse structure (Sec. 4.2).
            if (!sparse && !(tb.ports == 5 && c <= 2)) continue;
            VcDesignPoint p;
            p.cfg.ports = tb.ports;
            p.cfg.partition = tb.partition(2, c);
            p.cfg.kind = kind;
            p.cfg.arb = arb;
            p.cfg.sparse = sparse;
            p.large = kind == AllocatorKind::kWavefront && tb.ports == 10 &&
                      c == 4;
            if (p.large && !include_large) continue;
            p.name = std::string("vc ") + tb.name + " 2x" +
                     (tb.ports == 5 ? "1" : "2") + "x" + std::to_string(c) +
                     " " + to_string(kind) + "/" + to_string(arb) +
                     (sparse ? " sparse" : " dense");
            points.push_back(std::move(p));
          }
        }
      }
    }
  }
  return points;
}

std::vector<SaDesignPoint> paper_sa_design_points(bool include_large) {
  std::vector<SaDesignPoint> points;
  for (std::size_t ports : {5u, 10u}) {
    for (std::size_t vcs : {2u, 4u, 8u, 16u}) {
      if (ports == 5 && vcs == 16) continue;  // not a paper design point
      for (AllocatorKind kind :
           {AllocatorKind::kSeparableInputFirst,
            AllocatorKind::kSeparableOutputFirst, AllocatorKind::kWavefront}) {
        for (ArbiterKind arb : arbiters_for(kind)) {
          for (SpecMode spec :
               {SpecMode::kNonSpeculative, SpecMode::kPessimistic,
                SpecMode::kConservative}) {
            SaDesignPoint p;
            p.cfg.ports = ports;
            p.cfg.vcs = vcs;
            p.cfg.kind = kind;
            p.cfg.arb = arb;
            p.cfg.spec = spec;
            // P=10, V=16 wavefronts run to ~10M nodes apiece (the Design
            // Compiler blow-up of Sec. 4.3.1); speculative variants build
            // two of them.
            p.large = kind == AllocatorKind::kWavefront && ports == 10 &&
                      vcs >= 16;
            if (p.large && !include_large) continue;
            p.name = "sa P" + std::to_string(ports) + " V" +
                     std::to_string(vcs) + " " + to_string(kind) + "/" +
                     to_string(arb) + " " + to_string(spec);
            points.push_back(std::move(p));
          }
        }
      }
    }
  }
  return points;
}

}  // namespace nocalloc::hw
