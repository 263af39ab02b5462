// Separable allocators (Becker & Dally Sec. 2.1, Fig. 1).
//
// Allocation decomposes into one round of arbitration across requesters and
// one across resources. Neither variant guarantees maximal matchings: the two
// arbitration stages run independently, so stage-1 choices can collide in
// stage 2 and leave grantable pairs unmatched.
//
// Fairness follows the iSLIP rule: a first-stage arbiter's priority advances
// only if its grant also succeeds in the second stage; second-stage arbiters
// advance whenever they issue a (final) grant.
//
// Both stages read their requests as packed BitMatrix rows; the arbiters
// pick over byte rows (ArbiterBank::pick_bytes, any width up to 256), which
// are filled from the set bits only and kept as members, so a call does
// not allocate.
#pragma once

#include "alloc/allocator.hpp"
#include "arbiter/arbiter_bank.hpp"

namespace nocalloc {

/// Input-first (sep_if, Fig. 1a): each input picks one of its requested
/// outputs, then each output picks among the incoming stage-1 winners.
class SeparableInputFirstAllocator final : public Allocator {
 public:
  SeparableInputFirstAllocator(std::size_t inputs, std::size_t outputs,
                               ArbiterKind arb);

  void allocate(const BitMatrix& req, BitMatrix& gnt) override;
  void reset() override;
  void state(StateArchive& ar) override {
    input_arb_.state(ar);
    output_arb_.state(ar);
  }

 private:
  ArbiterBank input_arb_;   // arbiter i: input i's stage-1 pick, outputs wide
  ArbiterBank output_arb_;  // arbiter j: output j's stage-2 pick, inputs wide
  BitMatrix bids_;          // outputs x inputs: the stage-1 picks
  ReqVector input_bytes_;   // inputs wide, all zero between picks
  ReqVector output_bytes_;  // outputs wide, all zero between picks
};

/// Output-first (sep_of, Fig. 1b): every output picks among all requesting
/// inputs, then each input picks among the outputs that chose it.
class SeparableOutputFirstAllocator final : public Allocator {
 public:
  SeparableOutputFirstAllocator(std::size_t inputs, std::size_t outputs,
                                ArbiterKind arb);

  void allocate(const BitMatrix& req, BitMatrix& gnt) override;
  void reset() override;
  void state(StateArchive& ar) override {
    output_arb_.state(ar);
    input_arb_.state(ar);
  }

 private:
  ArbiterBank output_arb_;  // arbiter j: output j's stage-1 pick, inputs wide
  ArbiterBank input_arb_;   // arbiter i: input i's stage-2 pick, outputs wide
  BitMatrix requests_by_output_;  // outputs x inputs: the request columns
  BitMatrix offers_;              // inputs x outputs: the stage-1 picks
  ReqVector input_bytes_;         // inputs wide, all zero between picks
  ReqVector output_bytes_;        // outputs wide, all zero between picks
};

}  // namespace nocalloc
