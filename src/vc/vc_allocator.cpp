#include "vc/vc_allocator.hpp"

#include <string>

#include "vc/vc_max_allocator.hpp"
#include "vc/vc_separable_allocator.hpp"
#include "vc/vc_wavefront_allocator.hpp"

namespace nocalloc {

VcAllocator::VcAllocator(std::size_t ports, std::size_t vcs)
    : ports_(ports), vcs_(vcs) {
  if (ports > bits::kWordBits || vcs > bits::kWordBits) {
    fail("VC allocator with P = " + std::to_string(ports) +
         " ports and V = " + std::to_string(vcs) +
         " VCs per port exceeds the one-word limit (P <= 64 and V <= 64)");
  }
}

void VcAllocator::allocate(const std::vector<VcRequest>& req,
                           std::vector<int>& grant) {
  NOCALLOC_CHECK(req.size() == total());
  packed_req_.clear();
  for (std::size_t i = 0; i < req.size(); ++i) {
    const VcRequest& r = req[i];
    if (!r.valid) continue;
    NOCALLOC_CHECK(r.out_port >= 0 &&
                   static_cast<std::size_t>(r.out_port) < ports_);
    NOCALLOC_CHECK(r.vc_mask.size() == vcs_);
    bits::Word mask = 0;
    for (std::size_t v = 0; v < vcs_; ++v) {
      mask |= static_cast<bits::Word>(r.vc_mask[v] != 0) << v;
    }
    packed_req_.push_back({static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(r.out_port), mask});
  }
  grant.assign(total(), -1);
  allocate_sparse(packed_req_.data(), packed_req_.size(), grant);
}

void VcAllocator::allocate_sparse(const FastVcRequest* req, std::size_t n,
                                  std::vector<int>& grant) {
  // allocate() rewrites the whole grant vector.
  with_dense_requests(req, n, [&](const std::vector<VcRequest>& dense) {
    allocate(dense, grant);
  });
}

void VcAllocator::expand_sparse(const FastVcRequest* req, std::size_t n) {
  if (dense_req_.size() != total()) {
    dense_req_.assign(total(), VcRequest{});
    for (VcRequest& r : dense_req_) r.vc_mask.assign(vcs_, 0);
  }
  for (std::size_t k = 0; k < n; ++k) {
    VcRequest& r = dense_req_[req[k].input];
    r.valid = true;
    r.out_port = static_cast<int>(req[k].out_port);
    for (std::size_t v = 0; v < vcs_; ++v) {
      r.vc_mask[v] = static_cast<std::uint8_t>((req[k].vc_mask >> v) & 1);
    }
  }
}

void VcAllocator::expand_requests(const std::vector<VcRequest>& req,
                                  BitMatrix& out) const {
  out.resize(total(), total());
  for (std::size_t i = 0; i < total(); ++i) {
    const VcRequest& r = req[i];
    if (!r.valid) continue;
    const std::size_t base = static_cast<std::size_t>(r.out_port) * vcs_;
    for (std::size_t v = 0; v < vcs_; ++v) {
      if (r.vc_mask[v]) out.set(i, base + v);
    }
  }
}

std::unique_ptr<VcAllocator> make_vc_allocator(const VcAllocatorConfig& cfg) {
  NOCALLOC_CHECK(cfg.ports > 0);
  switch (cfg.kind) {
    case AllocatorKind::kSeparableInputFirst:
      return std::make_unique<VcSeparableInputFirstAllocator>(
          cfg.ports, cfg.partition.total_vcs(), cfg.arb);
    case AllocatorKind::kSeparableOutputFirst:
      return std::make_unique<VcSeparableOutputFirstAllocator>(
          cfg.ports, cfg.partition.total_vcs(), cfg.arb);
    case AllocatorKind::kWavefront:
      return std::make_unique<VcWavefrontAllocator>(cfg.ports, cfg.partition,
                                                    cfg.sparse);
    case AllocatorKind::kMaximumSize:
      return std::make_unique<VcMaxSizeAllocator>(cfg.ports,
                                                  cfg.partition.total_vcs());
  }
  NOCALLOC_CHECK(false);
}

}  // namespace nocalloc
