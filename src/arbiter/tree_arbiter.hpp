// Tree arbiter: G groups of S inputs arbitrate locally in parallel while a
// G-input arbiter selects among groups with at least one request; the overall
// winner is the local winner of the winning group.
//
// This is the structure Sec. 4.1 of the paper uses to reduce the delay of the
// large PxV-input output-stage arbiters in the separable VC allocators: "a
// stage of P V-input arbiters in parallel with a single P-input arbiter that
// selects among them".
//
// Priority update follows the same on-success-only protocol: update() touches
// the group-level arbiter and the winning group's local arbiter, leaving all
// losing groups' state untouched.
#pragma once

#include "arbiter/arbiter.hpp"

namespace nocalloc {

class TreeArbiter final : public Arbiter {
 public:
  /// groups * group_size total inputs; input i belongs to group i / group_size.
  TreeArbiter(ArbiterKind kind, std::size_t groups, std::size_t group_size);

  std::size_t size() const override { return groups_ * group_size_; }
  int pick(const ReqVector& req) const override;
  void update(int winner) override;
  void reset() override;
  void state(StateArchive& ar) override {
    top_->state(ar);
    for (const auto& local : local_) local->state(ar);
  }

  std::size_t groups() const { return groups_; }
  std::size_t group_size() const { return group_size_; }

  /// The two arbitration levels, exposed so the allocators' sparse
  /// kernels can drive the exact same priority state one level at a time.
  Arbiter& top() { return *top_; }
  Arbiter& local(std::size_t g) { return *local_[g]; }

 private:
  std::size_t groups_;
  std::size_t group_size_;
  std::vector<std::unique_ptr<Arbiter>> local_;  // one per group
  std::unique_ptr<Arbiter> top_;                 // selects among groups
};

}  // namespace nocalloc
