#include "alloc/max_size_allocator.hpp"

#include <bit>
#include <limits>

namespace nocalloc {
namespace {

constexpr int kFree = -1;
constexpr int kInf = std::numeric_limits<int>::max();

// Hopcroft-Karp straight over the request matrix's packed rows, run in
// caller-owned scratch so a warm call allocates nothing. Every scan visits a
// row's requested columns in ascending order. O(E * sqrt(V)); the matrices
// here are small (<= 160x160).
class HopcroftKarp {
 public:
  HopcroftKarp(const BitMatrix& req, MaxSizeAllocator::Scratch& s)
      : req_(req), n_(req.rows()), s_(s) {
    s_.match_l.assign(n_, kFree);
    s_.match_r.assign(req.cols(), kFree);
    s_.dist.resize(n_);
    s_.queue.resize(n_);
  }

  std::size_t run() {
    std::size_t matching = 0;
    while (bfs()) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (s_.match_l[i] == kFree && dfs(static_cast<int>(i))) ++matching;
      }
    }
    return matching;
  }

  int left_match(std::size_t i) const { return s_.match_l[i]; }

 private:
  // Each left vertex is enqueued at most once per phase, so an n-entry
  // array with head/tail cursors is the whole queue.
  bool bfs() {
    std::size_t tail = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (s_.match_l[i] == kFree) {
        s_.dist[i] = 0;
        s_.queue[tail++] = static_cast<int>(i);
      } else {
        s_.dist[i] = kInf;
      }
    }
    bool found_augmenting = false;
    for (std::size_t head = 0; head < tail; ++head) {
      const auto u = static_cast<std::size_t>(s_.queue[head]);
      bits::for_each_set(req_.row(u), req_.words_per_row(), [&](std::size_t v) {
        const int w = s_.match_r[v];
        if (w == kFree) {
          found_augmenting = true;
        } else if (s_.dist[static_cast<std::size_t>(w)] == kInf) {
          s_.dist[static_cast<std::size_t>(w)] = s_.dist[u] + 1;
          s_.queue[tail++] = w;
        }
      });
    }
    return found_augmenting;
  }

  bool dfs(int u) {
    const auto ui = static_cast<std::size_t>(u);
    for (std::size_t k = 0; k < req_.words_per_row(); ++k) {
      for (bits::Word cur = req_.row(ui)[k]; cur != 0; cur &= cur - 1) {
        const std::size_t v = k * bits::kWordBits +
                              static_cast<std::size_t>(std::countr_zero(cur));
        const int w = s_.match_r[v];
        if (w == kFree ||
            (s_.dist[static_cast<std::size_t>(w)] == s_.dist[ui] + 1 &&
             dfs(w))) {
          s_.match_l[ui] = static_cast<int>(v);
          s_.match_r[v] = u;
          return true;
        }
      }
    }
    s_.dist[ui] = kInf;
    return false;
  }

  const BitMatrix& req_;
  std::size_t n_;
  MaxSizeAllocator::Scratch& s_;
};

// Scratch for the static entry points: one per thread, since the quality
// sweeps call them from every pool worker.
MaxSizeAllocator::Scratch& thread_scratch() {
  thread_local MaxSizeAllocator::Scratch scratch;
  return scratch;
}

}  // namespace

void MaxSizeAllocator::max_matching(const BitMatrix& req, BitMatrix& gnt) {
  HopcroftKarp hk(req, thread_scratch());
  hk.run();
  gnt.resize(req.rows(), req.cols());
  for (std::size_t i = 0; i < req.rows(); ++i) {
    const int j = hk.left_match(i);
    if (j >= 0) gnt.set(i, static_cast<std::size_t>(j));
  }
}

std::size_t MaxSizeAllocator::max_matching_size(const BitMatrix& req) {
  HopcroftKarp hk(req, thread_scratch());
  return hk.run();
}

void MaxSizeAllocator::allocate(const BitMatrix& req, BitMatrix& gnt) {
  prepare(req, gnt);
  HopcroftKarp hk(req, scratch_);
  hk.run();
  for (std::size_t i = 0; i < req.rows(); ++i) {
    const int j = hk.left_match(i);
    if (j >= 0) gnt.set(i, static_cast<std::size_t>(j));
  }
}

}  // namespace nocalloc
