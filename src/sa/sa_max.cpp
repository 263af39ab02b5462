#include "sa/sa_max.hpp"

#include "alloc/max_size_allocator.hpp"

namespace nocalloc {

void SaMaxSize::allocate(const std::vector<SwitchRequest>& req,
                         std::vector<SwitchGrant>& grant) {
  prepare(req, grant);

  BitMatrix ports_req;
  port_requests(req, ports_req);

  BitMatrix ports_gnt;
  MaxSizeAllocator::max_matching(ports_req, ports_gnt);

  for (std::size_t p = 0; p < ports(); ++p) {
    const int o = ports_gnt.row_single(p);
    if (o < 0) continue;
    for (std::size_t v = 0; v < vcs(); ++v) {
      const SwitchRequest& r = req[p * vcs() + v];
      if (r.valid && r.out_port == o) {
        grant[p] = {static_cast<int>(v), o};
        break;
      }
    }
    NOCALLOC_CHECK(grant[p].granted());
  }
}

}  // namespace nocalloc
