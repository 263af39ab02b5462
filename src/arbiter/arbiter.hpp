// Arbiter vocabulary shared by the allocators and the hardware generators.
//
// An arbiter selects a single winner among N requesters. Every arbiter in
// this library is one arbiter of an ArbiterBank (arbiter/arbiter_bank.hpp),
// which separates *selection* from *priority update*: a pick is a pure
// function of the requests and the priority state, and update() advances
// the priority state after a successful grant.
//
// This split is what lets the separable allocators implement the fairness
// rule of Becker & Dally Sec. 2.1 (following McKeown's iSLIP): a first-stage
// arbiter's priority is only updated if its grant also succeeds in the second
// arbitration stage, and vice versa. Callers therefore pick everywhere
// first, determine which grants survive, and only then update the arbiters
// whose choice was honored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nocalloc {

/// Request vector: one byte per requester, non-zero means "requesting".
/// ArbiterBank::pick_bytes reads it; the allocators' kernels pick on packed
/// single-word masks instead, with the same winners.
using ReqVector = std::vector<std::uint8_t>;

/// Arbiter architectures evaluated in the paper (suffixes /rr and /m).
enum class ArbiterKind {
  kRoundRobin,  // rotating pointer; grants first request at or after it
  kMatrix,      // full priority matrix; strong fairness (least recently served)
};

/// Human-readable short name ("rr" / "m"), matching the paper's labels.
std::string to_string(ArbiterKind kind);

}  // namespace nocalloc
