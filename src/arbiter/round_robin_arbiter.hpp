// Round-robin arbiter: a rotating priority pointer grants the first
// requesting input at or after the pointer position. After a successful
// grant the pointer moves to one past the winner, giving the just-served
// input the lowest priority in the next round (weak fairness: every
// persistent requester is served within N rounds). The rule itself is
// rr_pick_bytes / rr_next (arbiter/arbiter_bank.hpp), shared with the
// allocators' arbiter banks.
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
  /// No save ever writes a pointer equal to the width, so a load rejects it.
  void state(StateArchive& ar) override {
    ar.u64(pointer_);
    if (ar.loading()) NOCALLOC_CHECK(pointer_ < size_);
  }

  /// Current priority pointer (exposed for tests).
  std::size_t pointer() const { return pointer_; }

 private:
  std::size_t size_;
  std::size_t pointer_ = 0;
};

}  // namespace nocalloc
