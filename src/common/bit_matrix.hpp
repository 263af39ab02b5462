// Dense boolean matrix used for allocator request and grant matrices.
//
// Rows correspond to requesters (allocator inputs) and columns to resources
// (allocator outputs). Each row is packed into 64-bit words (bit c of word w
// is column w * 64 + c), so the allocators' inner loops collapse into a few
// AND/CTZ/POPCNT steps per row instead of per-element byte scans: an entire
// 160-wide request row is three words. Unused high bits of each row's last
// word are always zero, which keeps whole-object comparison and subset tests
// plain word loops.
//
// Per-element get/set remain for the reference (oracle) allocator paths and
// for cold callers; their bounds checks are NOCALLOC_DCHECKs so optimized
// builds pay nothing for them inside hot loops.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/check.hpp"

namespace nocalloc {

class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        wpr_(bits::word_count(cols)),
        data_(rows * wpr_, 0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Words per packed row.
  std::size_t words_per_row() const { return wpr_; }

  /// Packed row access; bits >= cols() of the last word are zero.
  const bits::Word* row(std::size_t r) const {
    NOCALLOC_DCHECK(r < rows_);
    return data_.data() + r * wpr_;
  }

  bool get(std::size_t r, std::size_t c) const {
    NOCALLOC_DCHECK(r < rows_ && c < cols_);
    return (data_[r * wpr_ + bits::word_of(c)] & bits::bit(c)) != 0;
  }

  void set(std::size_t r, std::size_t c, bool v = true) {
    NOCALLOC_DCHECK(r < rows_ && c < cols_);
    bits::Word& w = data_[r * wpr_ + bits::word_of(c)];
    if (v) {
      w |= bits::bit(c);
    } else {
      w &= ~bits::bit(c);
    }
  }

  void clear() { data_.assign(data_.size(), 0); }

  /// Zeroes one row / one column.
  void clear_row(std::size_t r) {
    NOCALLOC_DCHECK(r < rows_);
    for (std::size_t w = 0; w < wpr_; ++w) data_[r * wpr_ + w] = 0;
  }
  void clear_col(std::size_t c) {
    NOCALLOC_DCHECK(c < cols_);
    const std::size_t w = bits::word_of(c);
    const bits::Word m = ~bits::bit(c);
    for (std::size_t r = 0; r < rows_; ++r) data_[r * wpr_ + w] &= m;
  }

  /// Resets shape and contents.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    wpr_ = bits::word_count(cols);
    data_.assign(rows * wpr_, 0);
  }

  /// Number of set entries.
  std::size_t count() const;

  /// Number of set entries in row r / column c.
  std::size_t row_count(std::size_t r) const;
  std::size_t col_count(std::size_t c) const;

  /// True if any entry in row r / column c is set.
  bool row_any(std::size_t r) const {
    NOCALLOC_CHECK(r < rows_);
    return bits::any(row(r), wpr_);
  }
  bool col_any(std::size_t c) const { return col_count(c) > 0; }

  /// Index of the single set entry in row r, or -1 if the row is empty.
  /// Checks that at most one entry is set (useful for validating matchings).
  int row_single(std::size_t r) const;

  /// True if *this is a valid matching: at most one entry per row and column.
  bool is_matching() const;

  /// True if every set entry of *this is also set in reqs.
  bool is_subset_of(const BitMatrix& reqs) const;

  bool operator==(const BitMatrix& other) const = default;

  /// Multi-line ASCII rendering ('.' = 0, 'X' = 1), for diagnostics.
  std::string to_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t wpr_ = 0;  // words per row
  std::vector<bits::Word> data_;
};

}  // namespace nocalloc
