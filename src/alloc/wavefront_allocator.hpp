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
//
// The kernel works one diagonal word at a time, as the tile array does:
// request() ORs a cell's row bit into the row words of its wrapped diagonal,
// and grant_requested() visits the occupied diagonals in wave order, granting
// every requested row that is still free and whose column is still free.
// Its scratch is n * ceil(n / 64) + 3 * ceil(n / 64) words, sized once in the
// constructor: at most 4 KiB for the shipped router blocks (n <= 160), and
// 2 MiB for the largest block a router accepts (P = V = 64, so n = 4096).
#pragma once

#include <algorithm>
#include <vector>

#include "alloc/allocator.hpp"

namespace nocalloc {

class WavefrontAllocator final : public Allocator {
 public:
  /// Wavefront allocation is defined over a square array; rectangular request
  /// shapes are handled by padding to max(inputs, outputs) internally.
  WavefrontAllocator(std::size_t inputs, std::size_t outputs);

  /// Requests the set cells of `req` and grants them: the kernel the VC and
  /// switch wavefront allocators run in the router.
  void allocate(const BitMatrix& req, BitMatrix& gnt) override;
  void reset() override { diagonal_ = 0; }
  void advance_priority(std::uint64_t cycles) override {
    diagonal_ = (diagonal_ + cycles) % n_;
  }
  void state(StateArchive& ar) override {
    ar.u64(diagonal_);
    if (ar.loading()) NOCALLOC_CHECK(diagonal_ < n_);
  }

  /// Currently active starting diagonal (exposed for tests).
  std::size_t diagonal() const { return diagonal_; }

  /// Computes the wavefront matching for a fixed starting diagonal without
  /// touching state: the byte-loop oracle that the kernel is tested against,
  /// and the VC/switch wavefront allocators' reference path.
  static void allocate_from_diagonal(const BitMatrix& req, std::size_t start,
                                     BitMatrix& gnt);

  /// Requests cell (row, col), row and col < n, for the next
  /// grant_requested(). Cells may come in any order; repeating one is
  /// harmless.
  void request(std::size_t row, std::size_t col) {
    NOCALLOC_DCHECK(row < n_ && col < n_);
    std::size_t d = row + col;
    if (d >= n_) d -= n_;
    diag_rows_[d * nw_ + bits::word_of(row)] |= bits::bit(row);
    occupied_[bits::word_of(d)] |= bits::bit(d);
  }

  /// One allocation cycle over the requested cells: calls on_grant(row, col)
  /// for each grant, in wave order and by row within a wave, clears the
  /// requests, and advances the starting diagonal exactly as allocate() does
  /// -- also when nothing was requested, so it must run once per cycle.
  ///
  /// Cells on one wrapped diagonal share neither row nor column, so a whole
  /// diagonal is granted at once: its candidates are its requested rows that
  /// are still free, and each keeps its grant if its column is still free.
  /// Cost is O(n / 64) per occupied diagonal plus O(1) per candidate.
  template <class Fn>
  void grant_requested(Fn&& on_grant) {
    const std::size_t n = n_;
    const std::size_t nw = nw_;
    for (std::size_t w = 0; w < nw; ++w) {
      row_free_[w] = bits::low_mask(n - w * bits::kWordBits);
      col_free_[w] = row_free_[w];
    }
    // Occupied diagonals from diagonal_ upward, then the wrapped ones below
    // it: word sw is visited twice, first its high part, last its low part.
    const std::size_t sw = bits::word_of(diagonal_);
    const bits::Word below = bits::low_mask(diagonal_ % bits::kWordBits);
    for (std::size_t k = 0; k <= nw; ++k) {
      const std::size_t ow = sw + k < nw ? sw + k : sw + k - nw;
      bits::Word occ = occupied_[ow];
      if (k == 0) occ &= ~below;
      if (k == nw) occ &= below;
      while (occ != 0) {
        const std::size_t d = ow * bits::kWordBits +
                              static_cast<std::size_t>(std::countr_zero(occ));
        occ &= occ - 1;
        bits::Word* rows = &diag_rows_[d * nw];
        for (std::size_t w = 0; w < nw; ++w) {
          bits::Word cand = rows[w] & row_free_[w];
          rows[w] = 0;
          while (cand != 0) {
            const std::size_t r =
                w * bits::kWordBits +
                static_cast<std::size_t>(std::countr_zero(cand));
            cand &= cand - 1;
            const std::size_t c = r <= d ? d - r : d + n - r;
            bits::Word& col_word = col_free_[bits::word_of(c)];
            if ((col_word & bits::bit(c)) == 0) continue;
            col_word &= ~bits::bit(c);
            row_free_[w] &= ~bits::bit(r);
            on_grant(r, c);
          }
        }
      }
    }
    std::fill(occupied_.begin(), occupied_.end(), bits::Word{0});
    if (++diagonal_ == n) diagonal_ = 0;
  }

 private:
  std::size_t n_;   // padded square dimension
  std::size_t nw_;  // words per n-bit row
  std::size_t diagonal_ = 0;
  // diag_rows_[d * nw_ + w]: word w of the requested rows on wrapped
  // diagonal d; occupied_: the diagonals with any request. Both are all zero
  // between cycles. row_free_ / col_free_: the unmatched rows and columns.
  std::vector<bits::Word> diag_rows_;
  std::vector<bits::Word> occupied_;
  std::vector<bits::Word> row_free_;
  std::vector<bits::Word> col_free_;
};

}  // namespace nocalloc
