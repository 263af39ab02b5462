#include "sa/speculative_switch_allocator.hpp"

#include "common/bitops.hpp"

namespace nocalloc {

std::string to_string(SpecMode mode) {
  switch (mode) {
    case SpecMode::kNonSpeculative:
      return "nonspec";
    case SpecMode::kConservative:
      return "spec_gnt";
    case SpecMode::kPessimistic:
      return "spec_req";
  }
  NOCALLOC_CHECK(false);
}

SpeculativeSwitchAllocator::SpeculativeSwitchAllocator(
    const SwitchAllocatorConfig& cfg, SpecMode mode,
    const SwitchAllocatorFactory& make)
    : mode_(mode) {
  auto build = [&] {
    auto alloc = make ? make(cfg) : make_switch_allocator(cfg);
    NOCALLOC_CHECK(alloc != nullptr);
    return alloc;
  };
  nonspec_ = build();
  if (mode != SpecMode::kNonSpeculative) spec_ = build();
}

void SpeculativeSwitchAllocator::allocate_side(SwitchAllocator& alloc,
                                               const bits::Word* words,
                                               const std::uint8_t* out,
                                               std::vector<SwitchGrant>& gnt) {
  bits::Word any = 0;
  for (std::size_t p = 0; p < ports(); ++p) any |= words[p];
  if (any != 0 || alloc.reference_path()) {
    alloc.allocate_sparse(words, out, gnt);
  } else {
    gnt.assign(ports(), SwitchGrant{});
    alloc.advance_priority(1);
  }
}

void SpeculativeSwitchAllocator::allocate_sparse(
    const bits::Word* ns_words, const std::uint8_t* ns_out,
    const bits::Word* sp_words, const std::uint8_t* sp_out,
    std::vector<SpecSwitchGrant>& grant) {
  const std::size_t p_count = ports();
  const std::size_t v_count = vcs();
  grant.assign(p_count, SpecSwitchGrant{});

  allocate_side(*nonspec_, ns_words, ns_out, ns_gnt_);
  if (spec_ == nullptr) {
    for (std::size_t p = 0; p < p_count; ++p) grant[p].nonspec = ns_gnt_[p];
    return;
  }
  allocate_side(*spec_, sp_words, sp_out, sp_gnt_);

  // Row/column conflict summaries. For spec_gnt these are reduction-ORs over
  // the non-speculative grant matrix; for spec_req they are ORs over the
  // request matrix, available without waiting for allocation.
  bits::Word row_busy = 0;
  bits::Word col_busy = 0;
  if (mode_ == SpecMode::kConservative) {
    for (std::size_t p = 0; p < p_count; ++p) {
      if (ns_gnt_[p].granted()) {
        row_busy |= bits::bit(p);
        col_busy |= bits::bit(static_cast<std::size_t>(ns_gnt_[p].out_port));
      }
    }
  } else {
    for (std::size_t p = 0; p < p_count; ++p) {
      bits::Word w = ns_words[p];
      if (w == 0) continue;
      row_busy |= bits::bit(p);
      bits::for_each_set(&w, 1, [&](std::size_t v) {
        col_busy |= bits::bit(ns_out[p * v_count + v]);
      });
    }
  }

  for (std::size_t p = 0; p < p_count; ++p) {
    grant[p].nonspec = ns_gnt_[p];
    if (!sp_gnt_[p].granted()) continue;
    const auto o = static_cast<std::size_t>(sp_gnt_[p].out_port);
    if (((row_busy >> p) & 1) != 0 || ((col_busy >> o) & 1) != 0) {
      ++masked_;
      continue;
    }
    grant[p].spec = sp_gnt_[p];
  }
}

void SpeculativeSwitchAllocator::reset() {
  nonspec_->reset();
  if (spec_ != nullptr) spec_->reset();
  masked_ = 0;
}

}  // namespace nocalloc
