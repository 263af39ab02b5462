// The router's switch-allocation stage, speculative or not (Becker & Dally
// Sec. 5.2, Fig. 9).
//
// Speculation lets head flits bid for the crossbar in the same cycle they
// request an output VC, collapsing the VA and SA pipeline stages at low load
// (Peh & Dally). Two separate switch allocators handle non-speculative
// requests (flits that already hold an output VC) and speculative requests
// (head flits still waiting for VC allocation). Non-speculative traffic has
// strict priority: a speculative grant is discarded if it conflicts with the
// non-speculative side on the same input or output port.
//
// The two masking policies differ in *what* the conflict check reads:
//
//   - Conventional (spec_gnt, Fig. 9a): mask against non-speculative GRANTS.
//     Exact, but the reduction-OR trees over the grant matrix plus the
//     NOR/AND masking extend the critical path beyond the allocator itself.
//
//   - Pessimistic (spec_req, Fig. 9b): mask against non-speculative REQUESTS.
//     The request summaries are ready before allocation even starts, so only
//     the final AND stage remains on the critical path -- at the price of
//     discarding speculative grants whose conflicting non-speculative request
//     ultimately lost arbitration (harmless at low load, where requests are
//     sparse and nearly all of them are granted anyway).
//
// A non-speculative stage (nonspec) is the same structure without its second
// half, as in hw::gen_switch_allocator: one inner allocator, no speculative
// side, no mask and no masked-grant counter. Its grants and state bytes are
// those of the bare inner allocator.
//
// Whether a surviving speculative grant is *used* still depends on the head
// flit winning VC allocation in the same cycle; that check (misspeculation)
// belongs to the router, not to the allocator.
#pragma once

#include <functional>

#include "sa/switch_allocator.hpp"

namespace nocalloc {

/// Speculation policy for the router's switch-allocation stage.
enum class SpecMode {
  kNonSpeculative,  // "nonspec": head flits wait for VC allocation first
  kConservative,    // "spec_gnt": mask with non-speculative grants
  kPessimistic,     // "spec_req": mask with non-speculative requests
};

std::string to_string(SpecMode mode);

/// Builds an inner switch allocator; make_switch_allocator when empty.
using SwitchAllocatorFactory = std::function<std::unique_ptr<SwitchAllocator>(
    const SwitchAllocatorConfig&)>;

/// Per-input-port result of speculative switch allocation.
struct SpecSwitchGrant {
  SwitchGrant nonspec;  // grant from the non-speculative allocator
  SwitchGrant spec;     // surviving grant from the speculative allocator
  /// At most one of the two is set for a given input port; the combined
  /// grants across ports form a valid matching.
  bool granted() const { return nonspec.granted() || spec.granted(); }
};

class SpeculativeSwitchAllocator {
 public:
  /// Both internal allocators use the same architecture and arbiter kind
  /// and are built by `make` (make_switch_allocator when empty); a
  /// kNonSpeculative stage builds only the non-speculative one. P and V
  /// must each fit one word, which the inner allocators' constructors
  /// check; the conflict summaries are single words too.
  SpeculativeSwitchAllocator(const SwitchAllocatorConfig& cfg, SpecMode mode,
                             const SwitchAllocatorFactory& make = {});

  std::size_t ports() const { return nonspec_->ports(); }
  std::size_t vcs() const { return nonspec_->vcs(); }
  SpecMode mode() const { return mode_; }

  /// One allocation cycle, the entry point the router uses. `grant`
  /// receives one entry per input port with speculative grants already
  /// masked per the configured policy. The word/out_port pairs use the
  /// layout of SwitchAllocator::allocate_sparse, through which both
  /// internal allocators run; the conflict-masking policy is independent of
  /// the underlying allocator kind. A non-speculative stage ignores
  /// `sp_words`/`sp_out` and never sets a speculative grant. A side without
  /// any request word skips its allocator: its grants are cleared and it
  /// advances by advance_priority(1), which is what an all-empty allocation
  /// cycle does to every architecture (wavefront diagonals rotate
  /// unconditionally, separable arbiters and pre-selects update only on
  /// grants). Both sides still run on every call on the reference path,
  /// which so checks the skip.
  void allocate_sparse(const bits::Word* ns_words, const std::uint8_t* ns_out,
                       const bits::Word* sp_words, const std::uint8_t* sp_out,
                       std::vector<SpecSwitchGrant>& grant);

  void reset();

  /// Forwards skipped-cycle priority catch-up to the internal allocators
  /// (each runs one allocate() per cycle on a densely stepped router).
  void advance_priority(std::uint64_t cycles) {
    nonspec_->advance_priority(cycles);
    if (spec_ != nullptr) spec_->advance_priority(cycles);
  }

  /// Forwards the kernel/reference selection to the internal allocators.
  void set_reference_path(bool ref) {
    nonspec_->set_reference_path(ref);
    if (spec_ != nullptr) spec_->set_reference_path(ref);
  }

  /// Cumulative count of speculative grants discarded by the conflict mask;
  /// used by benches to quantify the pessimistic policy's lost opportunities.
  /// Always 0 on a non-speculative stage.
  std::uint64_t masked_spec_grants() const { return masked_; }

  /// Saves or loads the inner allocators' priority state plus, on a
  /// speculative stage, the masked-grant counter (it feeds SimResult's
  /// speculation statistics). A non-speculative stage writes exactly the
  /// bytes of its bare inner allocator.
  void state(StateArchive& ar) {
    nonspec_->state(ar);
    if (spec_ == nullptr) return;
    spec_->state(ar);
    ar.u64(masked_);
  }

 private:
  /// One side's allocation: `alloc` on `words`/`out` into `gnt`, or the
  /// empty-side replay when no word is set (see allocate_sparse()).
  void allocate_side(SwitchAllocator& alloc, const bits::Word* words,
                     const std::uint8_t* out, std::vector<SwitchGrant>& gnt);

  SpecMode mode_;
  std::unique_ptr<SwitchAllocator> nonspec_;
  std::unique_ptr<SwitchAllocator> spec_;  // null on a nonspec stage
  std::uint64_t masked_ = 0;
  // Per-call scratch for both inner grants, kept as members so the
  // per-cycle path is allocation free once warm.
  std::vector<SwitchGrant> ns_gnt_;
  std::vector<SwitchGrant> sp_gnt_;
};

}  // namespace nocalloc
