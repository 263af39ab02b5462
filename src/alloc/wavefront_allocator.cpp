#include "alloc/wavefront_allocator.hpp"

#include <algorithm>

namespace nocalloc {

WavefrontAllocator::WavefrontAllocator(std::size_t inputs, std::size_t outputs)
    : Allocator(inputs, outputs), n_(std::max(inputs, outputs)) {
  NOCALLOC_CHECK(n_ > 0);
}

void WavefrontAllocator::allocate_from_diagonal(const BitMatrix& req,
                                                std::size_t start,
                                                BitMatrix& gnt) {
  const std::size_t rows = req.rows();
  const std::size_t cols = req.cols();
  const std::size_t n = std::max(rows, cols);
  gnt.resize(rows, cols);

  std::vector<std::uint8_t> row_free(rows, 1);
  std::vector<std::uint8_t> col_free(cols, 1);

  // Wrapped diagonal d contains the cells (i, j) with (i + j) mod n == d.
  // Distinct cells on one diagonal share neither row nor column, so they can
  // be granted independently, exactly like one wave of the tile array.
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t d = (start + k) % n;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t j = (d + n - (i % n)) % n;
      if (j >= cols) continue;
      if (req.get(i, j) && row_free[i] && col_free[j]) {
        gnt.set(i, j);
        row_free[i] = 0;
        col_free[j] = 0;
      }
    }
  }
}

void WavefrontAllocator::allocate(const BitMatrix& req, BitMatrix& gnt) {
  prepare(req, gnt);
  dense_cells_.clear();
  for (std::size_t i = 0; i < inputs(); ++i) {
    bits::for_each_set(req.row(i), req.words_per_row(), [&](std::size_t j) {
      dense_cells_.push_back(
          {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
    });
  }
  dense_granted_.clear();
  allocate_sparse(dense_cells_.data(), dense_cells_.size(), dense_granted_);
  for (const SparseCell& cell : dense_granted_) gnt.set(cell.row, cell.col);
}

void WavefrontAllocator::reserve_sparse(std::size_t cells) {
  if (sorted_.size() < cells) sorted_.resize(cells);
}

void WavefrontAllocator::allocate_sparse(const SparseCell* cells,
                                         std::size_t m,
                                         std::vector<SparseCell>& granted) {
  const std::size_t n = n_;
  const std::size_t nw = bits::word_count(n);
  if (wave_cnt_.size() != n) {
    wave_cnt_.assign(n, 0);
    wave_off_.assign(n, 0);
    wave_occ_.assign(nw, 0);
  }
  if (sorted_.size() < m) sorted_.resize(m);

  // Bucket cells by wave: cell (r, c) lies on wrapped diagonal (r + c) % n
  // and is serviced in wave k = distance of that diagonal from the starting
  // one. Buckets are laid out in ascending k, so the scatter below leaves
  // sorted_ globally wave-ordered.
  for (std::size_t t = 0; t < m; ++t) {
    NOCALLOC_DCHECK(cells[t].row < n && cells[t].col < n);
    const std::size_t k = (cells[t].row + cells[t].col + n - diagonal_) % n;
    if (wave_cnt_[k]++ == 0) wave_occ_[bits::word_of(k)] |= bits::bit(k);
  }
  std::uint32_t running = 0;
  bits::for_each_set(wave_occ_.data(), nw, [&](std::size_t k) {
    wave_off_[k] = running;
    running += wave_cnt_[k];
  });
  for (std::size_t t = 0; t < m; ++t) {
    const std::size_t k = (cells[t].row + cells[t].col + n - diagonal_) % n;
    sorted_[wave_off_[k]++] = cells[t];
  }

  // Wave-ordered grant scan. Within one wave, distinct cells share neither
  // row nor column ((r + c) fixed mod n forces c to differ whenever r does),
  // so clearing the free bits cell by cell only affects later waves --
  // exactly the semantics of the dense diagonal loop, restricted to the
  // requested cells.
  row_free_.assign(nw, 0);
  col_free_.assign(nw, 0);
  for (std::size_t i = 0; i < n; ++i) {
    row_free_[bits::word_of(i)] |= bits::bit(i);
    col_free_[bits::word_of(i)] |= bits::bit(i);
  }
  for (std::size_t t = 0; t < m; ++t) {
    const SparseCell cell = sorted_[t];
    if ((row_free_[bits::word_of(cell.row)] & bits::bit(cell.row)) != 0 &&
        (col_free_[bits::word_of(cell.col)] & bits::bit(cell.col)) != 0) {
      granted.push_back(cell);
      row_free_[bits::word_of(cell.row)] &= ~bits::bit(cell.row);
      col_free_[bits::word_of(cell.col)] &= ~bits::bit(cell.col);
    }
  }

  // Reset the wave buckets via the touched-wave bitmap, so cleanup tracks
  // the cycle's traffic rather than n.
  bits::for_each_set(wave_occ_.data(), nw, [&](std::size_t k) {
    wave_cnt_[k] = 0;
  });
  std::fill(wave_occ_.begin(), wave_occ_.end(), bits::Word{0});
  diagonal_ = (diagonal_ + 1) % n_;
}

}  // namespace nocalloc
