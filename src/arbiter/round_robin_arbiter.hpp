// Round-robin arbiter: a rotating priority pointer grants the first
// requesting input at or after the pointer position. After a successful
// grant the pointer moves to one past the winner, giving the just-served
// input the lowest priority in the next round (weak fairness: every
// persistent requester is served within N rounds).
#pragma once

#include "arbiter/arbiter.hpp"

namespace nocalloc {

class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(std::size_t size);

  std::size_t size() const override { return size_; }
  int pick(const ReqVector& req) const override;
  void update(int winner) override;
  void reset() override { pointer_ = 0; }
  void state(StateArchive& ar) override {
    ar.u64(pointer_);
    if (ar.loading()) NOCALLOC_CHECK(pointer_ <= size_);
  }

  /// Current priority pointer (exposed for tests and the allocators'
  /// devirtualized sparse kernels).
  std::size_t pointer() const { return pointer_; }

 private:
  std::size_t size_;
  std::size_t pointer_ = 0;
};

/// Single-word round-robin pick for arbiters of width <= 64: the winner
/// pick() selects on the equivalent byte vector when `ptr` is the arbiter's
/// pointer -- the first set bit at or after `ptr`, wrapping to the lowest
/// set bit when nothing at or above the pointer requests. The sparse
/// allocator kernels use this to skip the virtual dispatch and byte loop.
inline int rr_pick_word(bits::Word req, std::size_t ptr) {
  const bits::Word at_or_after = req & ~(bits::bit(ptr) - 1);
  const bits::Word sel = at_or_after != 0 ? at_or_after : req;
  return sel == 0 ? -1 : static_cast<int>(std::countr_zero(sel));
}

}  // namespace nocalloc
