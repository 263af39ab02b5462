#include "arbiter/matrix_arbiter.hpp"

#include "common/check.hpp"

namespace nocalloc {

MatrixArbiter::MatrixArbiter(std::size_t size)
    : size_(size), wpr_(bits::word_count(size)) {
  NOCALLOC_CHECK(size > 0);
  reset();
}

void MatrixArbiter::reset() {
  // Initial total order: lower index beats higher index.
  prio_.assign(size_ * wpr_, 0);
  for (std::size_t i = 0; i < size_; ++i) {
    for (std::size_t j = i + 1; j < size_; ++j) {
      prio_[i * wpr_ + bits::word_of(j)] |= bits::bit(j);
    }
  }
}

bool MatrixArbiter::has_priority(std::size_t i, std::size_t j) const {
  NOCALLOC_CHECK(i < size_ && j < size_ && i != j);
  return (prio_row(i)[bits::word_of(j)] & bits::bit(j)) != 0;
}

int MatrixArbiter::pick(const ReqVector& req) const {
  NOCALLOC_CHECK(req.size() == size_);
  for (std::size_t i = 0; i < size_; ++i) {
    if (!req[i]) continue;
    bool wins = true;
    for (std::size_t j = 0; j < size_; ++j) {
      if (j == i || !req[j]) continue;
      if (!has_priority(i, j)) {
        wins = false;
        break;
      }
    }
    if (wins) return static_cast<int>(i);
  }
  // The priority relation always contains a total order restricted to any
  // requesting subset, so a winner exists whenever any request does.
  return -1;
}

void MatrixArbiter::update(int winner) {
  NOCALLOC_CHECK(winner >= 0 && static_cast<std::size_t>(winner) < size_);
  const std::size_t w = static_cast<std::size_t>(winner);
  const std::size_t ww = bits::word_of(w);
  const bits::Word wb = bits::bit(w);
  for (std::size_t j = 0; j < size_; ++j) {
    if (j == w) continue;
    prio_[j * wpr_ + ww] |= wb;  // everyone gains priority over winner
  }
  for (std::size_t v = 0; v < wpr_; ++v) {
    prio_[w * wpr_ + v] = 0;  // winner loses priority over everyone
  }
}

}  // namespace nocalloc
