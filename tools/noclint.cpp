// noclint: lints generated allocator netlists from the command line.
//
// Usage:
//   noclint --all [--skip-large] [--errors-only] [--dead-cells]
//   noclint vc [ports=N] [vcs_per_class=C] [partition=mesh|fbfly]
//              [kind=sep_if|sep_of|wf] [arb=rr|m]
//              [sparse=0|1|true|false] [options]
//   noclint sa [ports=N] [vcs=V] [kind=sep_if|sep_of|wf] [arb=rr|m]
//              [spec=nonspec|spec_req|spec_gnt] [options]
//
// --all sweeps every paper design point (Secs. 4.3.1 / 5.3.1); the explicit
// forms lint a single configuration, defaulting to the mesh testbed. Exits
// nonzero iff any linted netlist contains errors.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "hw/netlist.hpp"
#include "hw/sa_gen.hpp"
#include "hw/vc_alloc_gen.hpp"
#include "lint/design_points.hpp"
#include "lint/lint.hpp"

namespace {

using namespace nocalloc;
using namespace nocalloc::hw;

struct Options {
  bool errors_only = false;
  bool dead_cells = false;
  bool skip_large = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "noclint: %s\n", msg.c_str());
  std::fprintf(
      stderr,
      "usage:\n"
      "  noclint --all [--skip-large] [--errors-only] [--dead-cells]\n"
      "  noclint vc [ports=N] [vcs_per_class=C] [partition=mesh|fbfly]\n"
      "             [kind=sep_if|sep_of|wf] [arb=rr|m] [sparse=0|1]\n"
      "  noclint sa [ports=N] [vcs=V] [kind=sep_if|sep_of|wf] [arb=rr|m]\n"
      "             [spec=nonspec|spec_req|spec_gnt]\n");
  std::exit(2);
}

AllocatorKind parse_kind(const std::string& v) {
  if (v == "sep_if") return AllocatorKind::kSeparableInputFirst;
  if (v == "sep_of") return AllocatorKind::kSeparableOutputFirst;
  if (v == "wf") return AllocatorKind::kWavefront;
  usage_error("unknown allocator kind (want sep_if|sep_of|wf)");
}

ArbiterKind parse_arb(const std::string& v) {
  if (v == "rr") return ArbiterKind::kRoundRobin;
  if (v == "m") return ArbiterKind::kMatrix;
  usage_error("unknown arbiter kind (want rr|m)");
}

SpecMode parse_spec(const std::string& v) {
  if (v == "nonspec") return SpecMode::kNonSpeculative;
  if (v == "spec_req") return SpecMode::kPessimistic;
  if (v == "spec_gnt") return SpecMode::kConservative;
  usage_error("unknown spec mode (want nonspec|spec_req|spec_gnt)");
}

/// A whole positive integer (parse_size), or a usage error naming `key`.
std::size_t positive_size(const std::string& key, const std::string& v) {
  const std::optional<std::size_t> out = parse_size(v, 1);
  if (!out) {
    usage_error("bad value '" + v + "' for " + key +
                " (expected a positive integer)");
  }
  return *out;
}

bool parse_sparse(const std::string& v) {
  if (v == "1" || v == "true") return true;
  if (v == "0" || v == "false") return false;
  usage_error("bad value '" + v +
              "' for sparse (expected 0, 1, true or false)");
}

/// Lints one netlist and prints its findings. Returns true if error-free.
bool lint_and_report(const Netlist& nl, const std::string& name,
                     const Options& opt) {
  const std::vector<Diagnostic> diags = lint(nl);
  const std::size_t errors = count_of(diags, LintSeverity::kError);
  const std::size_t warnings = count_of(diags, LintSeverity::kWarning);

  std::printf("%-44s %9zu nodes  %zu error%s, %zu warning%s\n", name.c_str(),
              nl.size(), errors, errors == 1 ? "" : "s", warnings,
              warnings == 1 ? "" : "s");
  for (const Diagnostic& d : diags) {
    if (opt.errors_only && d.severity != LintSeverity::kError) continue;
    std::printf("  %s\n", to_string(d).c_str());
  }
  if (opt.dead_cells) {
    for (const ScopeDeadCells& s : dead_cell_breakdown(nl)) {
      std::printf("  dead cells: %6zu in scope %s\n", s.cells,
                  s.scope.c_str());
    }
  }
  return errors == 0;
}

bool run_all(const Options& opt) {
  bool ok = true;
  std::size_t linted = 0;
  for (const VcDesignPoint& p : paper_vc_design_points(!opt.skip_large)) {
    Netlist nl;
    gen_vc_allocator(nl, p.cfg);
    ok = lint_and_report(nl, p.name, opt) && ok;
    ++linted;
  }
  for (const SaDesignPoint& p : paper_sa_design_points(!opt.skip_large)) {
    Netlist nl;
    gen_switch_allocator(nl, p.cfg);
    ok = lint_and_report(nl, p.name, opt) && ok;
    ++linted;
  }
  std::printf("%zu design points linted: %s\n", linted,
              ok ? "all clean of errors" : "ERRORS FOUND");
  return ok;
}

bool run_vc(const std::vector<std::pair<std::string, std::string>>& kv,
            const Options& opt) {
  std::size_t ports = 5;
  std::size_t vcs_per_class = 1;
  std::string partition = "mesh";
  VcAllocGenConfig cfg;
  cfg.sparse = true;
  for (const auto& [key, value] : kv) {
    if (key == "ports") {
      ports = positive_size(key, value);
    } else if (key == "vcs_per_class") {
      vcs_per_class = positive_size(key, value);
    } else if (key == "partition") {
      partition = value;
    } else if (key == "kind") {
      cfg.kind = parse_kind(value);
    } else if (key == "arb") {
      cfg.arb = parse_arb(value);
    } else if (key == "sparse") {
      cfg.sparse = parse_sparse(value);
    } else {
      usage_error("unknown vc key");
    }
  }
  cfg.ports = ports;
  if (partition == "mesh") {
    cfg.partition = VcPartition::mesh(2, vcs_per_class);
  } else if (partition == "fbfly") {
    cfg.partition = VcPartition::fbfly(2, vcs_per_class);
  } else {
    usage_error("unknown partition (want mesh|fbfly)");
  }

  Netlist nl;
  gen_vc_allocator(nl, cfg);
  return lint_and_report(nl, "vc allocator", opt);
}

bool run_sa(const std::vector<std::pair<std::string, std::string>>& kv,
            const Options& opt) {
  SaGenConfig cfg;
  cfg.ports = 5;
  cfg.vcs = 2;
  for (const auto& [key, value] : kv) {
    if (key == "ports") {
      cfg.ports = positive_size(key, value);
    } else if (key == "vcs") {
      cfg.vcs = positive_size(key, value);
    } else if (key == "kind") {
      cfg.kind = parse_kind(value);
    } else if (key == "arb") {
      cfg.arb = parse_arb(value);
    } else if (key == "spec") {
      cfg.spec = parse_spec(value);
    } else {
      usage_error("unknown sa key");
    }
  }

  Netlist nl;
  gen_switch_allocator(nl, cfg);
  return lint_and_report(nl, "switch allocator", opt);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool all = false;
  std::string mode;
  std::vector<std::pair<std::string, std::string>> kv;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all") {
      all = true;
    } else if (arg == "--skip-large") {
      opt.skip_large = true;
    } else if (arg == "--errors-only") {
      opt.errors_only = true;
    } else if (arg == "--dead-cells") {
      opt.dead_cells = true;
    } else if (arg == "vc" || arg == "sa") {
      if (!mode.empty()) usage_error("only one of vc|sa may be given");
      mode = arg;
    } else if (const auto eq = arg.find('='); eq != std::string::npos) {
      kv.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    } else {
      usage_error("unrecognised argument");
    }
  }

  bool ok = false;
  if (all) {
    if (!mode.empty()) usage_error("--all cannot be combined with vc|sa");
    ok = run_all(opt);
  } else if (mode == "vc") {
    ok = run_vc(kv, opt);
  } else if (mode == "sa") {
    ok = run_sa(kv, opt);
  } else {
    usage_error("expected --all, vc or sa");
  }
  return ok ? 0 : 1;
}
