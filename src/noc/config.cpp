#include "noc/config.hpp"

#include <istream>
#include <optional>
#include <sstream>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace nocalloc::noc {
namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

/// Aborts naming the key, the offending value, and what was expected.
[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const std::string& expected) {
  fail("bad value '" + value + "' for config key '" + key + "' (expected " +
       expected + ")");
}

TopologyKind parse_topology(const std::string& key, const std::string& v) {
  if (v == "mesh") return TopologyKind::kMesh8x8;
  if (v == "fbfly") return TopologyKind::kFbfly4x4;
  if (v == "ring") return TopologyKind::kRing16;
  if (v == "torus") return TopologyKind::kTorus8x8;
  bad_value(key, v, "mesh, fbfly, ring or torus");
}

AllocatorKind parse_allocator(const std::string& key, const std::string& v) {
  if (v == "sep_if") return AllocatorKind::kSeparableInputFirst;
  if (v == "sep_of") return AllocatorKind::kSeparableOutputFirst;
  if (v == "wf") return AllocatorKind::kWavefront;
  bad_value(key, v, "sep_if, sep_of or wf");
}

ArbiterKind parse_arbiter(const std::string& key, const std::string& v) {
  if (v == "rr") return ArbiterKind::kRoundRobin;
  if (v == "m") return ArbiterKind::kMatrix;
  bad_value(key, v, "rr or m");
}

SpecMode parse_spec(const std::string& key, const std::string& v) {
  if (v == "nonspec") return SpecMode::kNonSpeculative;
  if (v == "spec_gnt") return SpecMode::kConservative;
  if (v == "spec_req") return SpecMode::kPessimistic;
  bad_value(key, v, "nonspec, spec_gnt or spec_req");
}

TrafficPattern parse_pattern(const std::string& key, const std::string& v) {
  if (v == "uniform") return TrafficPattern::kUniform;
  if (v == "bitcomp") return TrafficPattern::kBitComplement;
  if (v == "transpose") return TrafficPattern::kTranspose;
  if (v == "shuffle") return TrafficPattern::kShuffle;
  if (v == "tornado") return TrafficPattern::kTornado;
  bad_value(key, v, "uniform, bitcomp, transpose, shuffle or tornado");
}

/// parse_size, or aborts naming the key and the value.
std::size_t require_size(const std::string& key, const std::string& v,
                         std::size_t min = 0) {
  const std::optional<std::size_t> out = parse_size(v, min);
  if (!out) bad_value(key, v, "an integer >= " + std::to_string(min));
  return *out;
}

bool parse_bool(const std::string& key, const std::string& v) {
  if (v == "true" || v == "1" || v == "on") return true;
  if (v == "false" || v == "0" || v == "off") return false;
  bad_value(key, v, "true/false, 1/0 or on/off");
}

/// parse_rate, or aborts naming the key and the value.
double require_rate(const std::string& key, const std::string& v) {
  const std::optional<double> out = parse_rate(v);
  if (!out) bad_value(key, v, "a number >= 0");
  return *out;
}

void apply(SimConfig& cfg, const std::string& key, const std::string& value) {
  if (key == "topology") {
    cfg.topology = parse_topology(key, value);
  } else if (key == "vcs_per_class") {
    cfg.vcs_per_class = require_size(key, value, 1);
  } else if (key == "vc_alloc") {
    cfg.vc_alloc = parse_allocator(key, value);
  } else if (key == "vc_arb") {
    cfg.vc_arb = parse_arbiter(key, value);
  } else if (key == "sw_alloc") {
    cfg.sw_alloc = parse_allocator(key, value);
  } else if (key == "sw_arb") {
    cfg.sw_arb = parse_arbiter(key, value);
  } else if (key == "spec") {
    cfg.spec = parse_spec(key, value);
  } else if (key == "buffer_depth") {
    cfg.buffer_depth = require_size(key, value, 1);
  } else if (key == "pattern") {
    cfg.pattern = parse_pattern(key, value);
  } else if (key == "injection_rate") {
    cfg.injection_rate = require_rate(key, value);
  } else if (key == "ugal_threshold") {
    cfg.ugal_threshold = require_size(key, value);
  } else if (key == "warmup_cycles") {
    cfg.warmup_cycles = require_size(key, value);
  } else if (key == "measure_cycles") {
    cfg.measure_cycles = require_size(key, value, 1);
  } else if (key == "drain_cycles") {
    cfg.drain_cycles = require_size(key, value);
  } else if (key == "seed") {
    cfg.seed = require_size(key, value);
  } else if (key == "check_invariants") {
    cfg.check_invariants = parse_bool(key, value);
  } else if (key == "disable_datelines") {
    cfg.disable_datelines = parse_bool(key, value);
  } else {
    fail("unknown config key '" + key + "'");
  }
}

}  // namespace

void apply_override(SimConfig& cfg, const std::string& assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos) {
    fail("config entry '" + assignment + "' is not of the form key=value");
  }
  apply(cfg, trim(assignment.substr(0, eq)), trim(assignment.substr(eq + 1)));
}

SimConfig parse_sim_config(std::istream& in, SimConfig base) {
  std::string line;
  while (std::getline(in, line)) {
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    apply_override(base, trimmed);
  }
  return base;
}

std::string to_config_string(const SimConfig& cfg) {
  std::ostringstream out;
  out << "topology = " << to_string(cfg.topology) << "\n"
      << "vcs_per_class = " << cfg.vcs_per_class << "\n"
      << "vc_alloc = " << to_string(cfg.vc_alloc) << "\n"
      << "vc_arb = " << to_string(cfg.vc_arb) << "\n"
      << "sw_alloc = " << to_string(cfg.sw_alloc) << "\n"
      << "sw_arb = " << to_string(cfg.sw_arb) << "\n"
      << "spec = " << to_string(cfg.spec) << "\n"
      << "buffer_depth = " << cfg.buffer_depth << "\n"
      << "pattern = " << to_string(cfg.pattern) << "\n"
      << "injection_rate = " << cfg.injection_rate << "\n"
      << "ugal_threshold = " << cfg.ugal_threshold << "\n"
      << "warmup_cycles = " << cfg.warmup_cycles << "\n"
      << "measure_cycles = " << cfg.measure_cycles << "\n"
      << "drain_cycles = " << cfg.drain_cycles << "\n"
      << "seed = " << cfg.seed << "\n"
      << "check_invariants = " << (cfg.check_invariants ? "true" : "false")
      << "\n"
      << "disable_datelines = " << (cfg.disable_datelines ? "true" : "false")
      << "\n";
  return out.str();
}

}  // namespace nocalloc::noc
