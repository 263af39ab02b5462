// Arbitration rules and flat arbiter banks.
//
// The paper's separable allocators are built from many small arbiters: V:1
// and P:1 arbiters per port, and output-VC trees of P V-input arbiters plus
// one P-input selector (Sec. 2.1, 4.1). An ArbiterBank holds N arbiters of
// one kind and one width W <= 256 in one flat array -- one pointer byte per
// round-robin arbiter, W rows of word_count(W) priority words per matrix
// arbiter -- so an allocator's whole priority state is a few contiguous
// bytes instead of one heap object per arbiter. The bank is the library's
// only arbiter type.
//
// Every arbitration rule lives here once, as the free functions below: the
// bank's single-word pick() (the VC and switch allocators' kernels, W <= 64)
// and its byte-loop pick_bytes() (their reference oracles, and the generic
// separable allocators at any width) both call them. pick() and
// pick_bytes() are pure and select the same winner on equivalent requests;
// update() applies the on-success priority change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arbiter/arbiter.hpp"
#include "common/bitops.hpp"
#include "common/check.hpp"
#include "common/snapshot.hpp"

namespace nocalloc {

// ---------------------------------------------------------------------------
// Round robin: a rotating pointer; the first request at or after it wins,
// and a successful grant moves the pointer one past the winner.

/// Single-word pick for width <= 64: the first set bit at or after `ptr`,
/// wrapping to the lowest set bit; -1 when `req` is empty.
inline int rr_pick_word(bits::Word req, std::size_t ptr) {
  const bits::Word at_or_after = req & ~(bits::bit(ptr) - 1);
  const bits::Word sel = at_or_after != 0 ? at_or_after : req;
  return sel == 0 ? -1 : static_cast<int>(std::countr_zero(sel));
}

/// Byte-loop pick over `n` requesters, any width.
inline int rr_pick_bytes(const std::uint8_t* req, std::size_t n,
                         std::size_t ptr) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = ptr + i < n ? ptr + i : ptr + i - n;
    if (req[idx]) return static_cast<int>(idx);
  }
  return -1;
}

/// The pointer after a successful grant to `winner` (< n).
inline std::size_t rr_next(std::size_t winner, std::size_t n) {
  return winner + 1 == n ? 0 : winner + 1;
}

// ---------------------------------------------------------------------------
// Matrix: a pairwise priority relation kept as `n` rows of `wpr` words; bit j
// of row i set means i beats j. A requester wins iff it beats every other
// requester; a successful grant makes the winner least recently served.

/// Initial total order: lower index beats higher index.
void matrix_reset(bits::Word* prio, std::size_t n, std::size_t wpr);

/// Byte-loop pick over `n` requesters, any width.
int matrix_pick_bytes(const bits::Word* prio, std::size_t n, std::size_t wpr,
                      const std::uint8_t* req);

/// Single-word pick for width <= 64 (one word per row): candidate i wins
/// iff no other requester holds priority over it.
inline int matrix_pick_word(const bits::Word* prio, bits::Word req) {
  bits::Word cur = req;
  while (cur != 0) {
    const auto i = static_cast<std::size_t>(std::countr_zero(cur));
    cur &= cur - 1;
    if ((req & ~prio[i] & ~bits::bit(i)) == 0) return static_cast<int>(i);
  }
  return -1;
}

/// Everyone gains priority over `winner`, which loses it over everyone.
inline void matrix_update(bits::Word* prio, std::size_t n, std::size_t wpr,
                          std::size_t winner) {
  const std::size_t ww = bits::word_of(winner);
  const bits::Word wb = bits::bit(winner);
  for (std::size_t j = 0; j < n; ++j) prio[j * wpr + ww] |= wb;
  for (std::size_t v = 0; v < wpr; ++v) prio[winner * wpr + v] = 0;
}

// ---------------------------------------------------------------------------

class ArbiterBank {
 public:
  /// Widest arbiter a bank holds: a round-robin pointer is one byte.
  static constexpr std::size_t kMaxWidth = 256;

  /// `count` arbiters of `kind`, each `width` wide (1 <= width <=
  /// kMaxWidth); any other width aborts with a message.
  ArbiterBank(ArbiterKind kind, std::size_t count, std::size_t width);

  std::size_t width() const { return width_; }

  /// Arbiter k's winner among the set bits of `req`, or -1; pure. Single
  /// word: width() <= 64.
  int pick(std::size_t k, bits::Word req) const {
    NOCALLOC_DCHECK(k < count_ && width_ <= bits::kWordBits &&
                    (req & ~bits::low_mask(width_)) == 0);
    return kind_ == ArbiterKind::kRoundRobin
               ? rr_pick_word(req, ptr_[k])
               : matrix_pick_word(&prio_[k * stride_], req);
  }

  /// The byte-loop oracle of pick(), at any width: the same winner over a
  /// byte vector of width() entries (non-zero means requesting).
  int pick_bytes(std::size_t k, const ReqVector& req) const;

  /// On-success priority update of arbiter k. Pre: winner < width().
  void update(std::size_t k, int winner) {
    NOCALLOC_DCHECK(k < count_ && winner >= 0 &&
                    static_cast<std::size_t>(winner) < width_);
    const auto w = static_cast<std::size_t>(winner);
    if (kind_ == ArbiterKind::kRoundRobin) {
      ptr_[k] = static_cast<std::uint8_t>(rr_next(w, width_));
    } else {
      matrix_update(&prio_[k * stride_], width_, wpr_, w);
    }
  }

  /// Every arbiter back to its post-construction state.
  void reset();

  /// Saves or loads arbiter k's priority state: a round-robin pointer as
  /// one u64, a matrix as count(width * word_count(width)) and then its
  /// row words. A load rejects a round-robin pointer outside [0, width).
  void state(StateArchive& ar, std::size_t k) {
    if (kind_ == ArbiterKind::kRoundRobin) {
      std::uint64_t ptr = ptr_[k];
      ar.u64(ptr);
      if (ar.loading()) {
        NOCALLOC_CHECK(ptr < width_);
        ptr_[k] = static_cast<std::uint8_t>(ptr);
      }
    } else {
      ar.count(stride_);
      ar.pod_array(&prio_[k * stride_], stride_);
    }
  }

  /// state(ar, k) for every k in ascending order.
  void state(StateArchive& ar) {
    for (std::size_t k = 0; k < count_; ++k) state(ar, k);
  }

 private:
  ArbiterKind kind_;
  std::size_t count_;
  std::size_t width_;
  std::size_t wpr_;     // words per matrix row: word_count(width)
  std::size_t stride_;  // words per matrix arbiter: width * wpr
  std::vector<std::uint8_t> ptr_;  // [k], round robin only
  std::vector<bits::Word> prio_;   // [k * stride + row * wpr + word], matrix
};

// ---------------------------------------------------------------------------
// Tree arbitration (Sec. 4.1): G groups of S inputs. Tree k is arbiter k of
// a G-wide `top` bank plus arbiters k * G .. k * G + G - 1 of an S-wide
// `local` bank. The top picks among groups with a request, the winning
// group's local arbiter picks within it, and a successful grant updates
// exactly those two arbiters.

/// Single-word tree pick: bit g of `groups_req` is set iff group g
/// requests, and `group_req[g]` is group g's S-wide request word. Returns
/// the winner's global index g * S + l, or -1.
inline int tree_pick(const ArbiterBank& top, const ArbiterBank& local,
                     std::size_t k, bits::Word groups_req,
                     const bits::Word* group_req) {
  const int g = top.pick(k, groups_req);
  if (g < 0) return -1;
  const auto gu = static_cast<std::size_t>(g);
  const int l = local.pick(k * top.width() + gu, group_req[gu]);
  return g * static_cast<int>(local.width()) + l;
}

/// The byte-loop oracle of tree_pick() over G * S requesters.
int tree_pick_bytes(const ArbiterBank& top, const ArbiterBank& local,
                    std::size_t k, const ReqVector& req);

/// On-success update of tree k after granting `winner` (g * S + l).
inline void tree_update(ArbiterBank& top, ArbiterBank& local, std::size_t k,
                        std::size_t winner) {
  const std::size_t s = local.width();
  top.update(k, static_cast<int>(winner / s));
  local.update(k * top.width() + winner / s, static_cast<int>(winner % s));
}

/// Tree k's state: its top arbiter, then its G local arbiters.
inline void tree_state(StateArchive& ar, ArbiterBank& top, ArbiterBank& local,
                       std::size_t k) {
  top.state(ar, k);
  for (std::size_t g = 0; g < top.width(); ++g) {
    local.state(ar, k * top.width() + g);
  }
}

}  // namespace nocalloc
