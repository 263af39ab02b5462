// Dense-request helper for SpeculativeSwitchAllocator, shared by the tests
// that state their cases as one SwitchRequest per input VC. The stage itself
// has only the sparse entry, allocate_sparse(), which the router calls.
#pragma once

#include <cstdint>
#include <vector>

#include "sa/speculative_switch_allocator.hpp"

namespace nocalloc {

/// One allocation cycle on dense requests: packs both sets with
/// pack_switch_requests, which validates them, and runs allocate_sparse().
inline void allocate_dense(SpeculativeSwitchAllocator& alloc,
                           const std::vector<SwitchRequest>& nonspec_req,
                           const std::vector<SwitchRequest>& spec_req,
                           std::vector<SpecSwitchGrant>& grant) {
  const std::size_t ports = alloc.ports();
  const std::size_t vcs = alloc.vcs();
  std::vector<bits::Word> ns_words(ports);
  std::vector<bits::Word> sp_words(ports);
  std::vector<std::uint8_t> ns_out(ports * vcs);
  std::vector<std::uint8_t> sp_out(ports * vcs);
  pack_switch_requests(nonspec_req, ports, vcs, ns_words.data(),
                       ns_out.data());
  pack_switch_requests(spec_req, ports, vcs, sp_words.data(), sp_out.data());
  alloc.allocate_sparse(ns_words.data(), ns_out.data(), sp_words.data(),
                        sp_out.data(), grant);
}

}  // namespace nocalloc
