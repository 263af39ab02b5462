#include "vc/vc_max_allocator.hpp"

#include "alloc/max_size_allocator.hpp"

namespace nocalloc {

void VcMaxSizeAllocator::allocate_sparse(const FastVcRequest* req,
                                         std::size_t n,
                                         std::vector<int>& grant) {
  NOCALLOC_DCHECK(grant.size() == total());
  BitMatrix full(total(), total());
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t base = req[k].out_port * vcs();
    bits::for_each_set(&req[k].vc_mask, 1, [&](std::size_t v) {
      full.set(req[k].input, base + v);
    });
  }
  BitMatrix gnt;
  MaxSizeAllocator::max_matching(full, gnt);
  for (std::size_t k = 0; k < n; ++k) {
    grant[req[k].input] = gnt.row_single(req[k].input);
  }
}

}  // namespace nocalloc
