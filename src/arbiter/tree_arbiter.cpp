#include "arbiter/tree_arbiter.hpp"

#include "common/check.hpp"

namespace nocalloc {

TreeArbiter::TreeArbiter(ArbiterKind kind, std::size_t groups,
                         std::size_t group_size)
    : groups_(groups), group_size_(group_size) {
  NOCALLOC_CHECK(groups > 0 && group_size > 0);
  local_.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    local_.push_back(make_arbiter(kind, group_size));
  }
  top_ = make_arbiter(kind, groups);
}

int TreeArbiter::pick(const ReqVector& req) const {
  NOCALLOC_CHECK(req.size() == size());
  ReqVector group_req(groups_, 0);
  for (std::size_t g = 0; g < groups_; ++g) {
    for (std::size_t i = 0; i < group_size_; ++i) {
      if (req[g * group_size_ + i]) {
        group_req[g] = 1;
        break;
      }
    }
  }
  const int g = top_->pick(group_req);
  if (g < 0) return -1;
  ReqVector local_req(req.begin() + static_cast<long>(g) * static_cast<long>(group_size_),
                      req.begin() + (static_cast<long>(g) + 1) * static_cast<long>(group_size_));
  const int l = local_[static_cast<std::size_t>(g)]->pick(local_req);
  NOCALLOC_CHECK(l >= 0);
  return g * static_cast<int>(group_size_) + l;
}

void TreeArbiter::update(int winner) {
  NOCALLOC_CHECK(winner >= 0 && static_cast<std::size_t>(winner) < size());
  const std::size_t g = static_cast<std::size_t>(winner) / group_size_;
  const std::size_t l = static_cast<std::size_t>(winner) % group_size_;
  top_->update(static_cast<int>(g));
  local_[g]->update(static_cast<int>(l));
}

void TreeArbiter::reset() {
  for (auto& a : local_) a->reset();
  top_->reset();
}

}  // namespace nocalloc
