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
    const SwitchAllocatorConfig& cfg, SpecMode mode)
    : mode_(mode),
      nonspec_(make_switch_allocator(cfg)),
      spec_(make_switch_allocator(cfg)) {
  NOCALLOC_CHECK(mode != SpecMode::kNonSpeculative);
}

void SpeculativeSwitchAllocator::allocate_side(SwitchAllocator& alloc,
                                               const bits::Word* words,
                                               const std::uint8_t* out,
                                               std::vector<SwitchGrant>& gnt) {
  bits::Word any = 0;
  for (std::size_t p = 0; p < ports(); ++p) any |= words[p];
  if (any != 0 || run_empty_sides_ || alloc.reference_path()) {
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

void SpeculativeSwitchAllocator::allocate(
    const std::vector<SwitchRequest>& nonspec_req,
    const std::vector<SwitchRequest>& spec_req,
    std::vector<SpecSwitchGrant>& grant) {
  const std::size_t p_count = ports();
  const std::size_t total = p_count * vcs();
  ns_words_.resize(p_count);
  sp_words_.resize(p_count);
  ns_out_.resize(total);
  sp_out_.resize(total);
  pack_switch_requests(nonspec_req, p_count, vcs(), ns_words_.data(),
                       ns_out_.data());
  pack_switch_requests(spec_req, p_count, vcs(), sp_words_.data(),
                       sp_out_.data());
  allocate_sparse(ns_words_.data(), ns_out_.data(), sp_words_.data(),
                  sp_out_.data(), grant);
}

void SpeculativeSwitchAllocator::reset() {
  nonspec_->reset();
  spec_->reset();
  masked_ = 0;
}

}  // namespace nocalloc
