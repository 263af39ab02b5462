#include "arbiter/round_robin_arbiter.hpp"

#include "arbiter/arbiter_bank.hpp"
#include "common/check.hpp"

namespace nocalloc {

RoundRobinArbiter::RoundRobinArbiter(std::size_t size) : size_(size) {
  NOCALLOC_CHECK(size > 0);
}

int RoundRobinArbiter::pick(const ReqVector& req) const {
  NOCALLOC_CHECK(req.size() == size_);
  return rr_pick_bytes(req.data(), size_, pointer_);
}

void RoundRobinArbiter::update(int winner) {
  NOCALLOC_CHECK(winner >= 0 && static_cast<std::size_t>(winner) < size_);
  pointer_ = rr_next(static_cast<std::size_t>(winner), size_);
}

}  // namespace nocalloc
