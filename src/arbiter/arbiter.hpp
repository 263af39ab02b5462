// Arbiter interface.
//
// An arbiter selects a single winner among N requesters. All arbiters in this
// library separate *selection* from *priority update*: pick() is a pure
// function of the request vector and the internal priority state, and
// update() advances the priority state after a successful grant.
//
// This split is what lets the separable allocators implement the fairness
// rule of Becker & Dally Sec. 2.1 (following McKeown's iSLIP): a first-stage
// arbiter's priority is only updated if its grant also succeeds in the second
// arbitration stage, and vice versa. Callers therefore pick() everywhere
// first, determine which grants survive, and only then update() the arbiters
// whose choice was honored.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/snapshot.hpp"

namespace nocalloc {

/// Request vector: one byte per requester, non-zero means "requesting".
/// The allocators hold their arbiters in flat ArbiterBanks
/// (arbiter/arbiter_bank.hpp) whose kernels pick on packed single-word
/// masks instead, with the same winners.
using ReqVector = std::vector<std::uint8_t>;

class Arbiter {
 public:
  virtual ~Arbiter() = default;

  /// Number of requester ports.
  virtual std::size_t size() const = 0;

  /// Returns the index of the winning requester, or -1 if no input requests.
  /// Pure: does not modify priority state.
  virtual int pick(const ReqVector& req) const = 0;

  /// Advances the priority state after `winner` received a successful grant.
  /// Pre: 0 <= winner < size().
  virtual void update(int winner) = 0;

  /// Resets priority state to the post-construction value.
  virtual void reset() = 0;

  /// Saves or loads the priority state for warm snapshot/restore; a load
  /// must read bytes an identically configured arbiter saved.
  virtual void state(StateArchive& ar) = 0;
};

/// Arbiter architectures evaluated in the paper (suffixes /rr and /m).
enum class ArbiterKind {
  kRoundRobin,  // rotating pointer; grants first request at or after it
  kMatrix,      // full priority matrix; strong fairness (least recently served)
};

/// Human-readable short name ("rr" / "m"), matching the paper's labels.
std::string to_string(ArbiterKind kind);

/// Creates an arbiter of the given architecture and size.
std::unique_ptr<Arbiter> make_arbiter(ArbiterKind kind, std::size_t size);

}  // namespace nocalloc
