#include "vc/vc_max_allocator.hpp"

#include "alloc/max_size_allocator.hpp"

namespace nocalloc {

void VcMaxSizeAllocator::allocate(const std::vector<VcRequest>& req,
                                  std::vector<int>& grant) {
  prepare(req, grant);
  BitMatrix full;
  expand_requests(req, full);
  BitMatrix gnt;
  MaxSizeAllocator::max_matching(full, gnt);
  for (std::size_t i = 0; i < total(); ++i) grant[i] = gnt.row_single(i);
}

}  // namespace nocalloc
