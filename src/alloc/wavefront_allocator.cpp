#include "alloc/wavefront_allocator.hpp"

#include <algorithm>

namespace nocalloc {

WavefrontAllocator::WavefrontAllocator(std::size_t inputs, std::size_t outputs)
    : Allocator(inputs, outputs),
      n_(std::max(inputs, outputs)),
      nw_(bits::word_count(n_)),
      diag_rows_(n_ * nw_, 0),
      occupied_(nw_, 0),
      row_free_(nw_, 0),
      col_free_(nw_, 0) {
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
  for (std::size_t i = 0; i < inputs(); ++i) {
    bits::for_each_set(req.row(i), req.words_per_row(),
                       [&](std::size_t j) { request(i, j); });
  }
  grant_requested([&](std::size_t r, std::size_t c) { gnt.set(r, c); });
}

}  // namespace nocalloc
