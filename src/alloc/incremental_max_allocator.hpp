// Incremental maximum-size allocator (Becker & Dally Sec. 2.3).
//
// The paper notes that hardware schedulers exist which perform one
// augmenting-path step per cycle (Hoare et al., SC'06), but that their
// complexity and inherently iterative convergence limit their use in NoC
// routers. This model makes that argument measurable: the allocator carries
// its matching across invocations, first dropping pairs whose request
// disappeared, then performing at most `steps_per_cycle` augmentations on
// the current request matrix.
//
// Under slowly changing requests it converges to a maximum matching; under
// rapidly changing open-loop request streams (the paper's quality protocol)
// its effective quality sits between the single-cycle allocators and the
// maximum-size bound -- see bench/ablation_incremental_max.
#pragma once

#include "alloc/allocator.hpp"

namespace nocalloc {

class IncrementalMaxAllocator final : public Allocator {
 public:
  IncrementalMaxAllocator(std::size_t inputs, std::size_t outputs,
                          std::size_t steps_per_cycle);

  void allocate(const BitMatrix& req, BitMatrix& gnt) override;
  void reset() override;
  void advance_priority(std::uint64_t cycles) override;
  /// Saves / restores the carried matching and the rotating start input.
  void state(StateArchive& ar) override;

  std::size_t steps_per_cycle() const { return steps_; }

 private:
  /// Tries to find one augmenting path from unmatched input `i`; returns
  /// true (and applies the augmentation) on success. Outputs are explored
  /// in ascending order; `visited` holds one byte per output.
  bool augment(const BitMatrix& req, std::size_t i,
               std::vector<std::uint8_t>& visited);

  std::size_t steps_;
  // match_in_[i] = matched output or -1; match_out_[j] = matched input or -1.
  std::vector<int> match_in_;
  std::vector<int> match_out_;
  // Rotating start position for fairness across inputs.
  std::size_t next_start_ = 0;
};

}  // namespace nocalloc
