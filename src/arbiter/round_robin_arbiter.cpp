#include "arbiter/round_robin_arbiter.hpp"

#include "common/check.hpp"

namespace nocalloc {

RoundRobinArbiter::RoundRobinArbiter(std::size_t size) : size_(size) {
  NOCALLOC_CHECK(size > 0);
}

int RoundRobinArbiter::pick(const ReqVector& req) const {
  NOCALLOC_CHECK(req.size() == size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t idx = (pointer_ + i) % size_;
    if (req[idx]) return static_cast<int>(idx);
  }
  return -1;
}

void RoundRobinArbiter::update(int winner) {
  NOCALLOC_CHECK(winner >= 0 && static_cast<std::size_t>(winner) < size_);
  pointer_ = (static_cast<std::size_t>(winner) + 1) % size_;
}

}  // namespace nocalloc
