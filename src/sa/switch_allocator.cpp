#include "sa/switch_allocator.hpp"

#include <string>

#include "sa/sa_max.hpp"
#include "sa/sa_separable.hpp"
#include "sa/sa_wavefront.hpp"

namespace nocalloc {

SwitchAllocator::SwitchAllocator(std::size_t ports, std::size_t vcs)
    : ports_(ports), vcs_(vcs) {
  if (ports > bits::kWordBits || vcs > bits::kWordBits) {
    fail("switch allocator with P = " + std::to_string(ports) +
         " ports and V = " + std::to_string(vcs) +
         " VCs per port exceeds the one-word limit (P <= 64 and V <= 64)");
  }
}

void SwitchAllocator::allocate(const std::vector<SwitchRequest>& req,
                               std::vector<SwitchGrant>& grant) {
  packed_words_.resize(ports_);
  packed_out_.resize(total());
  pack_switch_requests(req, ports_, vcs_, packed_words_.data(),
                       packed_out_.data());
  allocate_sparse(packed_words_.data(), packed_out_.data(), grant);
}

void SwitchAllocator::allocate_sparse(const bits::Word* vc_words,
                                      const std::uint8_t* out_ports,
                                      std::vector<SwitchGrant>& grant) {
  with_dense_requests(vc_words, out_ports,
                      [&](const std::vector<SwitchRequest>& dense) {
                        allocate(dense, grant);
                      });
}

void SwitchAllocator::expand_sparse(const bits::Word* vc_words,
                                    const std::uint8_t* out_ports) {
  if (dense_req_.size() != total()) dense_req_.assign(total(), SwitchRequest{});
  for (std::size_t p = 0; p < ports_; ++p) {
    bits::for_each_set(&vc_words[p], 1, [&](std::size_t v) {
      dense_req_[p * vcs_ + v] = {true, out_ports[p * vcs_ + v]};
    });
  }
}

void pack_switch_requests(const std::vector<SwitchRequest>& req,
                          std::size_t ports, std::size_t vcs,
                          bits::Word* vc_words, std::uint8_t* out_ports) {
  NOCALLOC_CHECK(req.size() == ports * vcs);
  NOCALLOC_CHECK(ports <= bits::kWordBits && vcs <= bits::kWordBits);
  for (std::size_t p = 0; p < ports; ++p) {
    bits::Word w = 0;
    for (std::size_t v = 0; v < vcs; ++v) {
      const SwitchRequest& r = req[p * vcs + v];
      if (!r.valid) continue;
      NOCALLOC_CHECK(r.out_port >= 0 &&
                     static_cast<std::size_t>(r.out_port) < ports);
      w |= bits::bit(v);
      out_ports[p * vcs + v] = static_cast<std::uint8_t>(r.out_port);
    }
    vc_words[p] = w;
  }
}

void SwitchAllocator::port_requests(const std::vector<SwitchRequest>& req,
                                    BitMatrix& out) const {
  out.resize(ports_, ports_);
  for (std::size_t p = 0; p < ports_; ++p) {
    for (std::size_t v = 0; v < vcs_; ++v) {
      const SwitchRequest& r = req[p * vcs_ + v];
      if (r.valid) out.set(p, static_cast<std::size_t>(r.out_port));
    }
  }
}

std::unique_ptr<SwitchAllocator> make_switch_allocator(
    const SwitchAllocatorConfig& cfg) {
  NOCALLOC_CHECK(cfg.ports > 0 && cfg.vcs > 0);
  switch (cfg.kind) {
    case AllocatorKind::kSeparableInputFirst:
      return std::make_unique<SaSeparableInputFirst>(cfg.ports, cfg.vcs,
                                                     cfg.arb);
    case AllocatorKind::kSeparableOutputFirst:
      return std::make_unique<SaSeparableOutputFirst>(cfg.ports, cfg.vcs,
                                                      cfg.arb);
    case AllocatorKind::kWavefront:
      // The pre-selection arbiters are off the critical path, so the simpler
      // round-robin arbiters are always used there (Sec. 4.3.1 rationale).
      return std::make_unique<SaWavefront>(cfg.ports, cfg.vcs,
                                           ArbiterKind::kRoundRobin);
    case AllocatorKind::kMaximumSize:
      return std::make_unique<SaMaxSize>(cfg.ports, cfg.vcs);
  }
  NOCALLOC_CHECK(false);
}

}  // namespace nocalloc
