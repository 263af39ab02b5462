// Wavefront VC allocator (Fig. 3c).
//
// Requests are expanded to a PV x PV matrix as in the output-first case and
// fed to a wavefront core, whose grants are reduced back to one output VC per
// input VC. Because the wavefront core produces a matching directly, no
// post-arbitration is needed (the pre-selection arbiters Fig. 3c shows are
// off the critical path and carry no matching semantics).
//
// In sparse mode (Sec. 4.2) the monolithic PV x PV block is replaced by M
// independent (P*R*C) x (P*R*C) blocks, one per message class -- legal
// requests never cross message classes, so the achievable matchings are
// identical; only the hardware structure (and hence cost) differs.
#pragma once

#include "alloc/wavefront_allocator.hpp"
#include "vc/vc_allocator.hpp"

namespace nocalloc {

class VcWavefrontAllocator final : public VcAllocator {
 public:
  VcWavefrontAllocator(std::size_t ports, const VcPartition& partition,
                       bool sparse);

  /// Sparse single-call kernel: each candidate is requested as a (row,
  /// column) cell of its message class's block, then every core runs one
  /// WavefrontAllocator::grant_requested -- exactly once per call, so all
  /// diagonals rotate as one allocate_ref() would. See
  /// VcAllocator::allocate_sparse for the contract.
  /// With reference_path() set, runs allocate_ref() on the dense expansion
  /// of the same requests instead.
  void allocate_sparse(const FastVcRequest* req, std::size_t n,
                       std::vector<int>& grant) override;
  void reset() override;
  /// Every core advances its diagonal once per allocate() call (all blocks
  /// run each cycle), so skipped cycles advance every core equally.
  void advance_priority(std::uint64_t cycles) override {
    for (auto& c : cores_) c->advance_priority(cycles);
  }
  void state(StateArchive& ar) override {
    for (const auto& c : cores_) c->state(ar);
  }

 private:
  /// The oracle: builds each core's block request matrix, matches it with
  /// the byte-loop WavefrontAllocator::allocate_from_diagonal from the
  /// core's diagonal, then rotates that diagonal once.
  void allocate_ref(const std::vector<VcRequest>& req, std::vector<int>& grant);

  VcPartition partition_;
  bool sparse_;
  // One core when dense; one per message class when sparse.
  std::vector<std::unique_ptr<WavefrontAllocator>> cores_;
};

}  // namespace nocalloc
