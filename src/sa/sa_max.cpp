#include "sa/sa_max.hpp"

#include <bit>

#include "alloc/max_size_allocator.hpp"

namespace nocalloc {

void SaMaxSize::allocate_sparse(const bits::Word* vc_words,
                                const std::uint8_t* out_ports,
                                std::vector<SwitchGrant>& grant) {
  const std::size_t v_count = vcs();
  grant.assign(ports(), SwitchGrant{});

  BitMatrix ports_req(ports(), ports());
  for (std::size_t p = 0; p < ports(); ++p) {
    bits::for_each_set(&vc_words[p], 1, [&](std::size_t v) {
      ports_req.set(p, out_ports[p * v_count + v]);
    });
  }

  BitMatrix ports_gnt;
  MaxSizeAllocator::max_matching(ports_req, ports_gnt);

  for (std::size_t p = 0; p < ports(); ++p) {
    const int o = ports_gnt.row_single(p);
    if (o < 0) continue;
    // The lowest-index VC at p that requested o.
    bits::Word w = vc_words[p];
    while (w != 0 && out_ports[p * v_count + static_cast<std::size_t>(
                                   std::countr_zero(w))] != o) {
      w &= w - 1;
    }
    NOCALLOC_CHECK(w != 0);
    grant[p] = {std::countr_zero(w), o};
  }
}

}  // namespace nocalloc
