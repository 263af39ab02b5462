// Separable switch allocators (Fig. 8a / 8b).
//
// Input-first: a V:1 arbiter per input port first picks one requesting VC;
// the winner's request is forwarded to a P:1 arbiter at its output port.
// Only one request per input port ever reaches stage 2 -- the structural
// limitation behind sep_if's flattening matching quality at load (Sec. 5.3.2).
//
// Output-first: all VCs' requests are OR-combined per (input, output) pair
// and forwarded; each output port's P:1 arbiter picks a winning input port;
// then each input port arbitrates V:1 among VCs that can use any output it
// won, discarding surplus output grants.
//
// Both hold their arbiters in two flat ArbiterBanks (V-wide per input port,
// P-wide per output port) that the kernel and the byte-loop oracle share.
#pragma once

#include "arbiter/arbiter_bank.hpp"
#include "sa/switch_allocator.hpp"

namespace nocalloc {

class SaSeparableInputFirst final : public SwitchAllocator {
 public:
  SaSeparableInputFirst(std::size_t ports, std::size_t vcs, ArbiterKind arb);

  /// Sparse single-word kernel, bit-identical to allocate_ref() in grants
  /// and arbiter state; see SwitchAllocator::allocate_sparse for the
  /// contract.
  /// With reference_path() set, runs allocate_ref() on the dense expansion
  /// of the same requests instead.
  void allocate_sparse(const bits::Word* vc_words,
                       const std::uint8_t* out_ports,
                       std::vector<SwitchGrant>& grant) override;
  void reset() override;
  void state(StateArchive& ar) override {
    vc_.state(ar);
    out_.state(ar);
  }

 private:
  void allocate_ref(const std::vector<SwitchRequest>& req,
                    std::vector<SwitchGrant>& grant);

  ArbiterBank vc_;   // [p], V wide
  ArbiterBank out_;  // [o], P wide
  // Kernel scratch: stage-1 winning VC per input port and single-word bid
  // masks per output port.
  std::vector<int> port_vc_;           // [p]
  std::vector<bits::Word> fast_bids_;  // [o], P-wide
};

class SaSeparableOutputFirst final : public SwitchAllocator {
 public:
  SaSeparableOutputFirst(std::size_t ports, std::size_t vcs, ArbiterKind arb);

  /// Sparse single-word sep_of kernel: per-output union columns arbitrate
  /// first (all picks pure), then each winning input port's V:1 arbiter
  /// chooses among VCs whose output chose it, updating priorities exactly as
  /// allocate_ref does. See SwitchAllocator::allocate_sparse for the contract.
  /// With reference_path() set, runs allocate_ref() on the dense expansion
  /// of the same requests instead.
  void allocate_sparse(const bits::Word* vc_words,
                       const std::uint8_t* out_ports,
                       std::vector<SwitchGrant>& grant) override;
  void reset() override;
  void state(StateArchive& ar) override {
    out_.state(ar);
    vc_.state(ar);
  }

 private:
  void allocate_ref(const std::vector<SwitchRequest>& req,
                    std::vector<SwitchGrant>& grant);

  ArbiterBank out_;  // [o], P wide
  ArbiterBank vc_;   // [p], V wide
  // Kernel scratch: single-word union columns and the stage-1 winning input
  // port per output port.
  std::vector<bits::Word> fast_cols_;  // [o], P-wide
  std::vector<int> out_choice_;        // [o]
};

}  // namespace nocalloc
