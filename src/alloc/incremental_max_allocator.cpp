#include "alloc/incremental_max_allocator.hpp"

namespace nocalloc {

IncrementalMaxAllocator::IncrementalMaxAllocator(std::size_t inputs,
                                                 std::size_t outputs,
                                                 std::size_t steps_per_cycle)
    : Allocator(inputs, outputs),
      steps_(steps_per_cycle),
      match_in_(inputs, -1),
      match_out_(outputs, -1) {
  NOCALLOC_CHECK(steps_per_cycle >= 1);
}

void IncrementalMaxAllocator::reset() {
  match_in_.assign(inputs(), -1);
  match_out_.assign(outputs(), -1);
  next_start_ = 0;
}

void IncrementalMaxAllocator::advance_priority(std::uint64_t cycles) {
  if (cycles == 0) return;
  // An empty request matrix drops every carried pair and augments nothing;
  // only the start position keeps rotating.
  match_in_.assign(inputs(), -1);
  match_out_.assign(outputs(), -1);
  next_start_ = static_cast<std::size_t>((next_start_ + cycles) % inputs());
}

void IncrementalMaxAllocator::state(StateArchive& ar) {
  ar.pod_array(match_in_.data(), match_in_.size());
  ar.pod_array(match_out_.data(), match_out_.size());
  ar.u64(next_start_);
  if (ar.saving()) return;
  for (const int j : match_in_)
    NOCALLOC_CHECK(j >= -1 && j < static_cast<int>(outputs()));
  for (const int i : match_out_)
    NOCALLOC_CHECK(i >= -1 && i < static_cast<int>(inputs()));
  NOCALLOC_CHECK(next_start_ < inputs());
}

bool IncrementalMaxAllocator::augment(const BitMatrix& req, std::size_t i,
                                      std::vector<std::uint8_t>& visited) {
  for (std::size_t j = 0; j < outputs(); ++j) {
    if (!req.get(i, j) || visited[j]) continue;
    visited[j] = 1;
    const int holder = match_out_[j];
    if (holder < 0 ||
        augment(req, static_cast<std::size_t>(holder), visited)) {
      match_in_[i] = static_cast<int>(j);
      match_out_[j] = static_cast<int>(i);
      return true;
    }
  }
  return false;
}

void IncrementalMaxAllocator::allocate(const BitMatrix& req, BitMatrix& gnt) {
  prepare(req, gnt);

  // Phase 1: the carried matching is only valid where requests persist.
  for (std::size_t i = 0; i < inputs(); ++i) {
    const int j = match_in_[i];
    if (j >= 0 && !req.get(i, static_cast<std::size_t>(j))) {
      match_out_[static_cast<std::size_t>(j)] = -1;
      match_in_[i] = -1;
    }
  }

  // Phase 2: a bounded number of augmentation steps, starting from a
  // rotating input for weak fairness.
  std::vector<std::uint8_t> visited;
  std::size_t steps_used = 0;
  for (std::size_t k = 0; k < inputs() && steps_used < steps_; ++k) {
    const std::size_t i = (next_start_ + k) % inputs();
    if (match_in_[i] >= 0 || !req.row_any(i)) continue;
    ++steps_used;
    visited.assign(outputs(), 0);
    augment(req, i, visited);
  }
  next_start_ = (next_start_ + 1) % inputs();

  for (std::size_t i = 0; i < inputs(); ++i) {
    if (match_in_[i] >= 0) {
      gnt.set(i, static_cast<std::size_t>(match_in_[i]));
    }
  }
}

}  // namespace nocalloc
