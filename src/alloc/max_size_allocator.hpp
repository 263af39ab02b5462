// Maximum-size allocator (Becker & Dally Sec. 2.3).
//
// Computes a maximum-cardinality bipartite matching via Hopcroft-Karp. The
// paper uses this as the normalization reference for matching quality: it
// provides an upper bound no practical single-cycle allocator reaches in
// general, offers no fairness guarantees, and is not intended as a deployable
// router building block.
#pragma once

#include "alloc/allocator.hpp"

namespace nocalloc {

class MaxSizeAllocator final : public Allocator {
 public:
  MaxSizeAllocator(std::size_t inputs, std::size_t outputs)
      : Allocator(inputs, outputs) {}

  void allocate(const BitMatrix& req, BitMatrix& gnt) override;
  void reset() override {}

  /// Size of a maximum matching for `req`, without materializing grants.
  static std::size_t max_matching_size(const BitMatrix& req);

  /// Computes a maximum matching into `gnt` (resized to req's shape).
  static void max_matching(const BitMatrix& req, BitMatrix& gnt);

  /// Hopcroft-Karp working storage, reused across calls so a warm matching
  /// allocates nothing: both sides' matches, BFS layers and the BFS queue.
  /// The adjacency is the request matrix's packed rows themselves. The
  /// static entry points use one per thread.
  struct Scratch {
    std::vector<int> match_l, match_r, dist, queue;
  };

 private:
  Scratch scratch_;
};

}  // namespace nocalloc
