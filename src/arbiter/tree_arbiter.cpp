#include "arbiter/tree_arbiter.hpp"

namespace nocalloc {

TreeArbiter::TreeArbiter(ArbiterKind kind, std::size_t groups,
                         std::size_t group_size)
    : top_(kind, 1, groups), local_(kind, groups, group_size) {}

void TreeArbiter::update(int winner) {
  NOCALLOC_CHECK(winner >= 0 && static_cast<std::size_t>(winner) < size());
  tree_update(top_, local_, 0, static_cast<std::size_t>(winner));
}

}  // namespace nocalloc
