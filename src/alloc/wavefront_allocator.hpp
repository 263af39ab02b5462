// Wavefront allocator (Becker & Dally Sec. 2.2, Fig. 2; Tamir & Chi).
//
// Requests are viewed as an NxN matrix. Starting from a rotating priority
// diagonal, all requests on the current diagonal whose row and column are
// still free are granted (cells on one wrapped diagonal never conflict);
// the wave then advances to the next diagonal until all N diagonals have been
// serviced. The result is always a *maximal* matching -- no further grant can
// be added -- though not necessarily a maximum one.
//
// Fairness is weak: rotating the starting diagonal guarantees every request
// is eventually served but provides no stronger ordering. This behavioural
// model computes the matching the loop-free (diagonal-replicated) RTL
// implementation would produce; the hardware cost of that structure is
// modelled separately in src/hw.
#pragma once

#include "alloc/allocator.hpp"

namespace nocalloc {

class WavefrontAllocator final : public Allocator {
 public:
  /// Wavefront allocation is defined over a square array; rectangular request
  /// shapes are handled by padding to max(inputs, outputs) internally.
  WavefrontAllocator(std::size_t inputs, std::size_t outputs);

  /// Gathers the set cells of `req` and runs allocate_sparse(), the kernel
  /// the VC and switch wavefront allocators run in the router.
  void allocate(const BitMatrix& req, BitMatrix& gnt) override;
  void reset() override { diagonal_ = 0; }
  void advance_priority(std::uint64_t cycles) override {
    diagonal_ = (diagonal_ + cycles) % n_;
  }
  void save_state(StateWriter& w) const override { w.u64(diagonal_); }
  void load_state(StateReader& r) override {
    diagonal_ = static_cast<std::size_t>(r.u64());
    NOCALLOC_CHECK(diagonal_ < n_);
  }

  /// Currently active starting diagonal (exposed for tests).
  std::size_t diagonal() const { return diagonal_; }

  /// Computes the wavefront matching for a fixed starting diagonal without
  /// touching state: the byte-loop oracle that allocate() and
  /// allocate_sparse() are tested against, and the VC/switch wavefront
  /// allocators' reference path.
  static void allocate_from_diagonal(const BitMatrix& req, std::size_t start,
                                     BitMatrix& gnt);

  /// One requested (row, column) cell on the sparse fast path.
  struct SparseCell {
    std::uint32_t row = 0;
    std::uint32_t col = 0;
  };

  /// Sparse single-call equivalent of one allocate() cycle: the request
  /// matrix is given as its set cells (any order, rows/cols < n, no
  /// duplicates), the granted cells are appended to `granted`, and the
  /// starting diagonal advances exactly as allocate() would -- including for
  /// an empty cell list, which must still be issued once per cycle so the
  /// rotating priority matches a densely called scalar run.
  ///
  /// Cost is O(m + n/64) for m cells: cells are wave-bucketed with a
  /// counting sort keyed by their wrapped diagonal's distance from the
  /// starting one, then scanned in wave order against packed free-row /
  /// free-column masks. Cells of one wave share neither row nor column, so
  /// the linear scan over the wave-sorted cells makes exactly the grants of
  /// the nested diagonal loop.
  void allocate_sparse(const SparseCell* cells, std::size_t m,
                       std::vector<SparseCell>& granted);

  /// Pre-sizes the sparse-path scratch for calls of up to `cells` cells, so
  /// a caller that knows its bound keeps allocate_sparse() allocation-free
  /// from the first cycle on.
  void reserve_sparse(std::size_t cells);

 private:
  std::size_t n_;  // padded square dimension
  std::size_t diagonal_ = 0;
  // Sparse-path scratch, reused across calls so a warm allocate_sparse()
  // performs no heap allocations: the free-row / free-column masks, per-wave
  // cell counts (zeroed after use via the touched-wave bitmap), bucket write
  // cursors, and the wave-sorted cells.
  std::vector<bits::Word> row_free_;
  std::vector<bits::Word> col_free_;
  std::vector<std::uint32_t> wave_cnt_;
  std::vector<std::uint32_t> wave_off_;
  std::vector<bits::Word> wave_occ_;
  std::vector<SparseCell> sorted_;
  // allocate() scratch: the set cells of the dense request matrix and the
  // granted cells allocate_sparse() returns for them.
  std::vector<SparseCell> dense_cells_;
  std::vector<SparseCell> dense_granted_;
};

}  // namespace nocalloc
