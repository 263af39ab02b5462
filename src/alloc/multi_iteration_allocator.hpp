// Multi-iteration wrapper (Becker & Dally Sec. 2.1).
//
// Separable allocators can close part of the quality gap to maximal matching
// by iterating: after each pass, matched rows and columns are removed from
// the request matrix and allocation is repeated on the remainder. The paper
// notes that tight cycle-time constraints usually make this unattractive for
// NoCs; we provide it as an ablation knob so the quality benches can quantify
// exactly how much each extra iteration buys.
#pragma once

#include "alloc/allocator.hpp"

namespace nocalloc {

class MultiIterationAllocator final : public Allocator {
 public:
  /// Wraps `inner`, running up to `iterations` passes per allocate() call.
  /// Stops early once a pass adds no grants (the matching is then maximal).
  MultiIterationAllocator(std::unique_ptr<Allocator> inner,
                          std::size_t iterations);

  void allocate(const BitMatrix& req, BitMatrix& gnt) override;
  void reset() override { inner_->reset(); }
  /// An empty request matrix costs exactly one inner call (its first pass
  /// adds no grants), so skipped cycles forward one-for-one.
  void advance_priority(std::uint64_t cycles) override {
    inner_->advance_priority(cycles);
  }
  void state(StateArchive& ar) override { inner_->state(ar); }

  std::size_t iterations() const { return iterations_; }

 private:
  std::unique_ptr<Allocator> inner_;
  std::size_t iterations_;
};

}  // namespace nocalloc
