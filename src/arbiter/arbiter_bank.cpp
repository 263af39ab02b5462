#include "arbiter/arbiter_bank.hpp"

#include <algorithm>
#include <string>

namespace nocalloc {

void matrix_reset(bits::Word* prio, std::size_t n, std::size_t wpr) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t v = 0; v < wpr; ++v) prio[i * wpr + v] = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      prio[i * wpr + bits::word_of(j)] |= bits::bit(j);
    }
  }
}

int matrix_pick_bytes(const bits::Word* prio, std::size_t n, std::size_t wpr,
                      const std::uint8_t* req) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!req[i]) continue;
    const bits::Word* row = prio + i * wpr;
    bool wins = true;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || !req[j]) continue;
      if (!bits::test(row, j)) {
        wins = false;
        break;
      }
    }
    if (wins) return static_cast<int>(i);
  }
  // The relation always holds a total order on any requesting subset, so a
  // winner exists whenever any request does.
  return -1;
}

ArbiterBank::ArbiterBank(ArbiterKind kind, std::size_t count,
                         std::size_t width)
    : kind_(kind),
      count_(count),
      width_(width),
      wpr_(bits::word_count(width)),
      stride_(width * wpr_) {
  if (width == 0 || width > kMaxWidth) {
    fail("arbiter width " + std::to_string(width) + " is outside 1.." +
         std::to_string(kMaxWidth) + " (round-robin pointers are one byte)");
  }
  if (kind_ == ArbiterKind::kRoundRobin) {
    ptr_.assign(count_, 0);
  } else {
    prio_.assign(count_ * stride_, 0);
  }
  reset();
}

int ArbiterBank::pick_bytes(std::size_t k, const ReqVector& req) const {
  NOCALLOC_CHECK(k < count_ && req.size() == width_);
  return kind_ == ArbiterKind::kRoundRobin
             ? rr_pick_bytes(req.data(), width_, ptr_[k])
             : matrix_pick_bytes(&prio_[k * stride_], width_, wpr_,
                                 req.data());
}

void ArbiterBank::reset() {
  if (kind_ == ArbiterKind::kRoundRobin) {
    std::fill(ptr_.begin(), ptr_.end(), std::uint8_t{0});
  } else {
    for (std::size_t k = 0; k < count_; ++k) {
      matrix_reset(&prio_[k * stride_], width_, wpr_);
    }
  }
}

int tree_pick_bytes(const ArbiterBank& top, const ArbiterBank& local,
                    std::size_t k, const ReqVector& req) {
  const std::size_t groups = top.width();
  const std::size_t s = local.width();
  NOCALLOC_CHECK(req.size() == groups * s);
  ReqVector group_req(groups, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t i = 0; i < s; ++i) {
      if (req[g * s + i]) {
        group_req[g] = 1;
        break;
      }
    }
  }
  const int g = top.pick_bytes(k, group_req);
  if (g < 0) return -1;
  const auto first = req.begin() + static_cast<long>(g) * static_cast<long>(s);
  const ReqVector local_req(first, first + static_cast<long>(s));
  const int l = local.pick_bytes(k * groups + static_cast<std::size_t>(g),
                                 local_req);
  NOCALLOC_CHECK(l >= 0);
  return g * static_cast<int>(s) + l;
}

}  // namespace nocalloc
