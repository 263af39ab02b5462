// Text configuration for the simulation driver: "key = value" lines mapping
// onto SimConfig, so experiments can be described in files and overridden
// from a command line (BookSim-style). See examples/nocsim.cpp for the CLI.
//
// Recognized keys (defaults in parentheses):
//   topology        mesh | fbfly | ring | torus          (mesh)
//   vcs_per_class   integer >= 1                         (1)
//   vc_alloc        sep_if | sep_of | wf                 (sep_if)
//   vc_arb          rr | m                               (rr)
//   sw_alloc        sep_if | sep_of | wf                 (sep_if)
//   sw_arb          rr | m                               (rr)
//   spec            nonspec | spec_gnt | spec_req        (spec_req)
//   buffer_depth    integer >= 1                         (8)
//   pattern         uniform | bitcomp | transpose | shuffle | tornado
//   injection_rate  flits/terminal/cycle                 (0.1)
//   ugal_threshold  integer                              (3)
//   warmup_cycles / measure_cycles / drain_cycles        (10000/20000/30000)
//                   integers; measure_cycles >= 1
//   seed            integer                              (1)
//   check_invariants    true | false                     (false)
//   disable_datelines   true | false -- TEST-ONLY fault  (false)
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "noc/sim.hpp"

namespace nocalloc::noc {

/// Parses "key = value" lines ('#' comments, blank lines ignored) on top of
/// the given base config. Aborts via NOCALLOC_CHECK on unknown keys or
/// unparsable values -- configs are developer input, not runtime data.
SimConfig parse_sim_config(std::istream& in, SimConfig base = {});

/// Parses a single "key=value" override (as passed on a command line).
void apply_override(SimConfig& cfg, const std::string& assignment);

/// Serializes a config in the parse format (round-trips).
std::string to_config_string(const SimConfig& cfg);

}  // namespace nocalloc::noc
