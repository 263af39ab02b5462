#include "vc/vc_wavefront_allocator.hpp"

namespace nocalloc {

VcWavefrontAllocator::VcWavefrontAllocator(std::size_t ports,
                                           const VcPartition& partition,
                                           bool sparse)
    : VcAllocator(ports, partition.total_vcs()),
      partition_(partition),
      sparse_(sparse) {
  const std::size_t block =
      sparse_ ? ports * partition_.resource_classes() *
                    partition_.vcs_per_class()
              : total();
  for (std::size_t m = 0; m < (sparse_ ? partition_.message_classes() : 1);
       ++m) {
    cores_.push_back(std::make_unique<WavefrontAllocator>(block, block));
  }
}

void VcWavefrontAllocator::allocate_sparse(const FastVcRequest* req,
                                           std::size_t n,
                                           std::vector<int>& grant) {
  if (reference_path()) {
    with_dense_requests(req, n, [&](const std::vector<VcRequest>& dense) {
      allocate_ref(dense, grant);
    });
    return;
  }
  NOCALLOC_DCHECK(grant.size() == total());
  const std::size_t v_count = vcs();
  const std::size_t span =
      sparse_ ? partition_.resource_classes() * partition_.vcs_per_class()
              : v_count;
  const std::size_t width = span;  // VCs per port in each block

  // Request each candidate as a (row, column) cell of its message class's
  // block. A request only ever appears as a row of the block holding its
  // input VC, and candidate bits outside that block are ignored -- exactly
  // allocate_ref's per-block matrix build.
  for (std::size_t k = 0; k < n; ++k) {
    bits::Word mask = req[k].vc_mask;
    if (mask == 0) continue;
    const std::size_t v_in = static_cast<std::size_t>(req[k].input) % v_count;
    const std::size_t m = v_in / span;
    const std::size_t vc_lo = m * span;
    const std::size_t row =
        (req[k].input / v_count) * width + (v_in - vc_lo);
    const std::size_t out_base = req[k].out_port * width;
    if (span < bits::kWordBits) {
      mask = (mask >> vc_lo) & bits::low_mask(span);
    } else {
      mask >>= vc_lo;
    }
    WavefrontAllocator& core = *cores_[m];
    bits::for_each_set(&mask, 1,
                       [&](std::size_t w) { core.request(row, out_base + w); });
  }

  // Every core runs every cycle (empty or not), so all diagonals rotate in
  // lock-step with allocate_ref.
  for (std::size_t m = 0; m < cores_.size(); ++m) {
    const std::size_t vc_lo = m * span;
    cores_[m]->grant_requested([&](std::size_t row, std::size_t col) {
      const std::size_t p = row / width;
      const std::size_t v = vc_lo + row % width;
      const std::size_t out_port = col / width;
      const std::size_t out_vc = vc_lo + col % width;
      grant[p * v_count + v] = static_cast<int>(out_port * v_count + out_vc);
    });
  }
}

void VcWavefrontAllocator::allocate_ref(const std::vector<VcRequest>& req,
                                        std::vector<int>& grant) {
  // One block per core: core m owns VCs [m * width, (m + 1) * width) of
  // every port. Requests of message class m only target that range, which
  // is validated implicitly because out-of-block mask bits are ignored.
  const std::size_t width = vcs() / cores_.size();  // VCs per port per block
  const std::size_t n = ports() * width;
  for (std::size_t m = 0; m < cores_.size(); ++m) {
    const std::size_t vc_lo = m * width;

    // Block-local index of (port, vc) is port * width + (vc - vc_lo).
    BitMatrix block_req(n, n);
    for (std::size_t p = 0; p < ports(); ++p) {
      for (std::size_t v = vc_lo; v < vc_lo + width; ++v) {
        const VcRequest& r = req[p * vcs() + v];
        if (!r.valid) continue;
        const std::size_t row = p * width + (v - vc_lo);
        const std::size_t out_base =
            static_cast<std::size_t>(r.out_port) * width;
        for (std::size_t w = vc_lo; w < vc_lo + width; ++w) {
          if (r.vc_mask[w]) block_req.set(row, out_base + (w - vc_lo));
        }
      }
    }

    BitMatrix block_gnt;
    WavefrontAllocator::allocate_from_diagonal(
        block_req, cores_[m]->diagonal(), block_gnt);
    cores_[m]->advance_priority(1);

    for (std::size_t row = 0; row < n; ++row) {
      const int col = block_gnt.row_single(row);
      if (col < 0) continue;
      const std::size_t out_port = static_cast<std::size_t>(col) / width;
      const std::size_t out_vc = vc_lo + static_cast<std::size_t>(col) % width;
      grant[(row / width) * vcs() + vc_lo + row % width] =
          static_cast<int>(out_port * vcs() + out_vc);
    }
  }
}

void VcWavefrontAllocator::reset() {
  for (auto& c : cores_) c->reset();
}

}  // namespace nocalloc
