// Maximum-size switch allocator: quality-normalization reference (Sec. 3.1).
// Computes a maximum matching on the P x P union request matrix and picks the
// lowest-index candidate VC per granted port (VC choice does not affect the
// matching size the quality metric normalizes by). It implements
// allocate_sparse() directly and has no separate reference path.
#pragma once

#include "sa/switch_allocator.hpp"

namespace nocalloc {

class SaMaxSize final : public SwitchAllocator {
 public:
  SaMaxSize(std::size_t ports, std::size_t vcs)
      : SwitchAllocator(ports, vcs) {}

  void allocate_sparse(const bits::Word* vc_words,
                       const std::uint8_t* out_ports,
                       std::vector<SwitchGrant>& grant) override;
  void reset() override {}
};

}  // namespace nocalloc
