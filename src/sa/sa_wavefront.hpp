// Wavefront switch allocator (Fig. 8c).
//
// Per-VC requests are OR-combined into a P x P matrix and fed to a P x P
// wavefront core, which directly produces a port matching (at most one output
// per input, so its grants can drive the crossbar selects). In parallel, a
// stage of V:1 arbiters per (input port, output port) pair pre-selects which
// VC will be used if that output is granted; the pre-selection is off the
// wavefront's critical path.
#pragma once

#include "alloc/wavefront_allocator.hpp"
#include "arbiter/arbiter_bank.hpp"
#include "sa/switch_allocator.hpp"

namespace nocalloc {

class SaWavefront final : public SwitchAllocator {
 public:
  SaWavefront(std::size_t ports, std::size_t vcs, ArbiterKind presel_arb);

  /// Sparse kernel: each VC's (port, output) cell is requested from the
  /// core, and each pair WavefrontAllocator::grant_requested grants runs its
  /// pre-selection arbiter over the rebuilt VC candidates. Bit-identical to
  /// allocate_ref(); see SwitchAllocator::allocate_sparse for the contract.
  /// With reference_path() set, runs allocate_ref() on the dense expansion
  /// of the same requests instead.
  void allocate_sparse(const bits::Word* vc_words,
                       const std::uint8_t* out_ports,
                       std::vector<SwitchGrant>& grant) override;
  void reset() override;
  void advance_priority(std::uint64_t cycles) override {
    core_.advance_priority(cycles);
  }
  void state(StateArchive& ar) override {
    core_.state(ar);
    presel_.state(ar);
  }

 private:
  /// The oracle: the P x P union matrix through the byte-loop
  /// WavefrontAllocator::allocate_from_diagonal from the core's diagonal
  /// (which then rotates once), then byte-vector pre-selection.
  void allocate_ref(const std::vector<SwitchRequest>& req,
                    std::vector<SwitchGrant>& grant);

  WavefrontAllocator core_;
  // Arbiter p * P + o: the V:1 arbiter pre-selecting the VC used when
  // input port p is granted output port o. The kernel and the oracle share
  // the bank.
  ArbiterBank presel_;
};

}  // namespace nocalloc
