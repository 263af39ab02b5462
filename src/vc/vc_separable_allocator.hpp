// Separable VC allocator assemblies (Fig. 3a / 3b).
//
// Input-first: each input VC's V:1 arbiter selects one candidate output VC
// at its destination port; the selected requests then compete at PxV:1
// output-VC arbiters (built as tree arbiters -- P V-input arbiters in
// parallel with a P-input selector -- as Sec. 4.1 prescribes for delay).
//
// Both hold their arbiters in flat ArbiterBanks: one V-wide arbiter per
// input VC, and per output VC one tree -- a P-wide top arbiter plus P
// V-wide locals (tree k of the top/local bank pair). The kernel and the
// byte-loop oracle drive the same banks.
//
// Output-first: each input VC eagerly forwards its full candidate mask; the
// PxV:1 output-VC arbiters pick winners; since one input VC can win several
// output VCs, a final V:1 arbiter per input VC picks the VC actually taken,
// and the other output-side grants are discarded (those VCs stay unassigned
// this cycle -- the source of sep_of's lower matching quality).
#pragma once

#include "arbiter/arbiter_bank.hpp"
#include "vc/vc_allocator.hpp"

namespace nocalloc {

class VcSeparableInputFirstAllocator final : public VcAllocator {
 public:
  VcSeparableInputFirstAllocator(std::size_t ports, std::size_t vcs,
                                 ArbiterKind arb);

  /// Sparse single-word kernel, bit-identical to allocate_ref() in grants
  /// and arbiter state evolution; see VcAllocator::allocate_sparse for the
  /// contract.
  /// With reference_path() set, runs allocate_ref() on the dense expansion
  /// of the same requests instead.
  void allocate_sparse(const FastVcRequest* req, std::size_t n,
                       std::vector<int>& grant) override;
  void reset() override;
  /// Saves or loads every arbiter's priority state: the input arbiters,
  /// then each output tree (its top before its locals).
  void state(StateArchive& ar) override;

 private:
  void allocate_ref(const std::vector<VcRequest>& req, std::vector<int>& grant);

  ArbiterBank in_;         // [i], V wide
  ArbiterBank out_top_;    // [o], P wide
  ArbiterBank out_local_;  // [o * P + p], V wide
  // Kernel scratch: per-output-VC bids kept as one V-wide word per input
  // port (the tree's group slices).
  std::vector<bits::Word> fast_bids_;  // [o * P + p], V-wide
  std::vector<bits::Word> fast_port_any_;  // [o], P-wide
  std::vector<std::size_t> fast_touched_;  // outputs bid for
};

class VcSeparableOutputFirstAllocator final : public VcAllocator {
 public:
  VcSeparableOutputFirstAllocator(std::size_t ports, std::size_t vcs,
                                  ArbiterKind arb);

  /// Sparse single-word sep_of kernel: all stage-1 output-side tree picks
  /// run first (pure), then each input VC that won arbitrates among its
  /// offered output VCs and only then are priorities updated -- the exact
  /// structure (and state evolution) of allocate_ref. See
  /// VcAllocator::allocate_sparse for the contract.
  /// With reference_path() set, runs allocate_ref() on the dense expansion
  /// of the same requests instead.
  void allocate_sparse(const FastVcRequest* req, std::size_t n,
                       std::vector<int>& grant) override;
  void reset() override;
  /// Saves or loads every arbiter's priority state: each output tree (its
  /// top before its locals), then the input arbiters.
  void state(StateArchive& ar) override;

 private:
  void allocate_ref(const std::vector<VcRequest>& req, std::vector<int>& grant);

  ArbiterBank out_top_;    // [o], P wide
  ArbiterBank out_local_;  // [o * P + p], V wide
  ArbiterBank in_;         // [i], V wide
  // Kernel scratch: per-output-VC bid words (tree group slices), the
  // per-input offered-VC word, and the stage-1 winner list carrying each
  // winning input's destination port.
  struct FastWinner {
    std::uint32_t input = 0;
    std::uint32_t out_port = 0;
  };
  std::vector<bits::Word> fast_bids_;  // [o * P + p], V-wide
  std::vector<bits::Word> fast_port_any_;  // [o], P-wide
  std::vector<bits::Word> fast_offered_;   // [i], V-wide offered outputs
  std::vector<std::size_t> fast_touched_;  // output VCs requested
  std::vector<FastWinner> fast_winners_;   // input VCs offered >= 1 output
};

}  // namespace nocalloc
