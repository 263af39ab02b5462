// Matrix arbiter: maintains a full pairwise priority relation w(i,j) = "i has
// priority over j". Input i wins iff it requests and has priority over every
// other requesting input. After a successful grant the winner's priority is
// cleared against all inputs and all inputs gain priority over the winner,
// making the winner least-recently-served. This provides strong (LRS)
// fairness at higher hardware cost than the round-robin pointer -- the paper
// evaluates both as the /m and /rr separable-allocator variants.
#pragma once

#include "arbiter/arbiter.hpp"

namespace nocalloc {

class MatrixArbiter final : public Arbiter {
 public:
  explicit MatrixArbiter(std::size_t size);

  std::size_t size() const override { return size_; }
  int pick(const ReqVector& req) const override;
  void update(int winner) override;
  void reset() override;
  void state(StateArchive& ar) override {
    ar.count(prio_.size());
    ar.pod_array(prio_.data(), prio_.size());
  }

  /// Priority relation (exposed for tests): true if i beats j.
  bool has_priority(std::size_t i, std::size_t j) const;

  /// Single-word pick for arbiters of width <= 64, selecting the winner
  /// pick() selects on the equivalent byte vector: candidate i wins iff no
  /// other requester holds priority over it, i.e. (req & ~prio_row(i)) has
  /// no bit besides i itself. The sparse allocator kernels use this as the
  /// packed least-recently-served selection, skipping virtual dispatch and
  /// the byte loop.
  int pick_word(bits::Word req) const {
    NOCALLOC_DCHECK(wpr_ == 1);
    bits::Word cur = req;
    while (cur != 0) {
      const auto i = static_cast<std::size_t>(std::countr_zero(cur));
      cur &= cur - 1;
      if ((req & ~prio_[i] & ~bits::bit(i)) == 0) return static_cast<int>(i);
    }
    return -1;
  }

 private:
  const bits::Word* prio_row(std::size_t i) const {
    return prio_.data() + i * wpr_;
  }

  std::size_t size_;
  std::size_t wpr_;  // words per priority row
  // Packed priority rows: bit j of row i set means input i has priority over
  // input j. The diagonal is unused and kept zero.
  std::vector<bits::Word> prio_;
};

}  // namespace nocalloc
