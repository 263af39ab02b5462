// Matrix arbiter: maintains a full pairwise priority relation w(i,j) = "i has
// priority over j". Input i wins iff it requests and has priority over every
// other requesting input. After a successful grant the winner's priority is
// cleared against all inputs and all inputs gain priority over the winner,
// making the winner least-recently-served. This provides strong (LRS)
// fairness at higher hardware cost than the round-robin pointer -- the paper
// evaluates both as the /m and /rr separable-allocator variants. The rule
// itself is matrix_pick_bytes / matrix_update (arbiter/arbiter_bank.hpp),
// shared with the allocators' arbiter banks.
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

 private:
  std::size_t size_;
  std::size_t wpr_;  // words per priority row
  // Packed priority rows: bit j of row i set means input i has priority over
  // input j. The diagonal is unused and kept zero.
  std::vector<bits::Word> prio_;
};

}  // namespace nocalloc
