#include "arbiter/matrix_arbiter.hpp"

#include "arbiter/arbiter_bank.hpp"
#include "common/check.hpp"

namespace nocalloc {

MatrixArbiter::MatrixArbiter(std::size_t size)
    : size_(size), wpr_(bits::word_count(size)), prio_(size * wpr_, 0) {
  NOCALLOC_CHECK(size > 0);
  reset();
}

void MatrixArbiter::reset() { matrix_reset(prio_.data(), size_, wpr_); }

int MatrixArbiter::pick(const ReqVector& req) const {
  NOCALLOC_CHECK(req.size() == size_);
  return matrix_pick_bytes(prio_.data(), size_, wpr_, req.data());
}

void MatrixArbiter::update(int winner) {
  NOCALLOC_CHECK(winner >= 0 && static_cast<std::size_t>(winner) < size_);
  matrix_update(prio_.data(), size_, wpr_, static_cast<std::size_t>(winner));
}

}  // namespace nocalloc
