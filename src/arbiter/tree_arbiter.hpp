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
// losing groups' state untouched. The tree is one tree of the banked form
// the separable VC allocators hold per output VC (tree_pick_bytes /
// tree_update / tree_state in arbiter/arbiter_bank.hpp), so G and S are each
// at most 64.
#pragma once

#include "arbiter/arbiter_bank.hpp"

namespace nocalloc {

class TreeArbiter final : public Arbiter {
 public:
  /// groups * group_size total inputs; input i belongs to group i / group_size.
  TreeArbiter(ArbiterKind kind, std::size_t groups, std::size_t group_size);

  std::size_t size() const override { return top_.width() * local_.width(); }
  int pick(const ReqVector& req) const override {
    return tree_pick_bytes(top_, local_, 0, req);
  }
  void update(int winner) override;
  void reset() override {
    top_.reset();
    local_.reset();
  }
  void state(StateArchive& ar) override { tree_state(ar, top_, local_, 0); }

  std::size_t groups() const { return top_.width(); }
  std::size_t group_size() const { return local_.width(); }

 private:
  ArbiterBank top_;    // one G-wide arbiter
  ArbiterBank local_;  // G arbiters, S wide
};

}  // namespace nocalloc
