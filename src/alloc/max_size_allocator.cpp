#include "alloc/max_size_allocator.hpp"

#include <limits>

namespace nocalloc {
namespace {

constexpr int kFree = -1;
constexpr int kInf = std::numeric_limits<int>::max();

// Hopcroft-Karp over a flat (CSR) adjacency built from the request matrix,
// run entirely in caller-owned scratch so a warm call allocates nothing.
// O(E * sqrt(V)); the matrices here are small (<= 160x160).
class HopcroftKarp {
 public:
  // Each row's adjacency lists its requested columns in ascending order.
  HopcroftKarp(const BitMatrix& req, MaxSizeAllocator::Scratch& s)
      : n_(req.rows()), s_(s) {
    s_.adj_off.resize(n_ + 1);
    s_.adj.clear();
    for (std::size_t i = 0; i < n_; ++i) {
      s_.adj_off[i] = static_cast<int>(s_.adj.size());
      bits::for_each_set(req.row(i), req.words_per_row(), [&](std::size_t j) {
        s_.adj.push_back(static_cast<int>(j));
      });
    }
    s_.adj_off[n_] = static_cast<int>(s_.adj.size());
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
      for (int e = s_.adj_off[u]; e < s_.adj_off[u + 1]; ++e) {
        const int v = s_.adj[static_cast<std::size_t>(e)];
        const int w = s_.match_r[static_cast<std::size_t>(v)];
        if (w == kFree) {
          found_augmenting = true;
        } else if (s_.dist[static_cast<std::size_t>(w)] == kInf) {
          s_.dist[static_cast<std::size_t>(w)] = s_.dist[u] + 1;
          s_.queue[tail++] = w;
        }
      }
    }
    return found_augmenting;
  }

  bool dfs(int u) {
    const auto ui = static_cast<std::size_t>(u);
    for (int e = s_.adj_off[ui]; e < s_.adj_off[ui + 1]; ++e) {
      const int v = s_.adj[static_cast<std::size_t>(e)];
      const int w = s_.match_r[static_cast<std::size_t>(v)];
      if (w == kFree ||
          (s_.dist[static_cast<std::size_t>(w)] == s_.dist[ui] + 1 && dfs(w))) {
        s_.match_l[ui] = v;
        s_.match_r[static_cast<std::size_t>(v)] = u;
        return true;
      }
    }
    s_.dist[ui] = kInf;
    return false;
  }

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
