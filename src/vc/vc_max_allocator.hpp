// Maximum-size VC allocator: the quality-normalization reference of Sec. 3.1
// applied to the VC-allocation problem. Expands requests to the full PV x PV
// matrix (one row per requesting input VC) and computes a
// maximum-cardinality matching (Hopcroft-Karp). It implements
// allocate_sparse() directly and has no separate reference path.
#pragma once

#include "vc/vc_allocator.hpp"

namespace nocalloc {

class VcMaxSizeAllocator final : public VcAllocator {
 public:
  VcMaxSizeAllocator(std::size_t ports, std::size_t vcs)
      : VcAllocator(ports, vcs) {}

  void allocate_sparse(const FastVcRequest* req, std::size_t n,
                       std::vector<int>& grant) override;
  void reset() override {}
};

}  // namespace nocalloc
