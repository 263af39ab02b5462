// Allocator interface.
//
// An allocator computes a matching between `inputs` requesters and `outputs`
// resources: given a request matrix R (R[i][j] = input i requests output j)
// it produces a grant matrix G with G subset-of R, at most one grant per row
// and at most one grant per column (Becker & Dally Sec. 2).
//
// The single-cycle allocators are stateful only through their arbitration
// priorities, which provide fairness across successive invocations;
// allocate() is otherwise a pure combinational function, exactly like the
// single-cycle RTL blocks the paper synthesizes. The incremental
// maximum-size allocator also carries its matching from call to call.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "arbiter/arbiter.hpp"
#include "common/bit_matrix.hpp"
#include "common/snapshot.hpp"

namespace nocalloc {

class Allocator {
 public:
  Allocator(std::size_t inputs, std::size_t outputs)
      : inputs_(inputs), outputs_(outputs) {}
  virtual ~Allocator() = default;

  std::size_t inputs() const { return inputs_; }
  std::size_t outputs() const { return outputs_; }

  /// Computes a grant matrix for the given request matrix and advances the
  /// internal priority state according to the architecture's fairness rule.
  /// `gnt` is resized to inputs() x outputs().
  virtual void allocate(const BitMatrix& req, BitMatrix& gnt) = 0;

  /// Resets all priority state.
  virtual void reset() = 0;

  /// Advances the priority state exactly as `cycles` allocate() calls with an
  /// empty request matrix would. Architectures whose priorities evolve only
  /// on grants (separable arbiters, maximum-size) are unaffected -- the
  /// default is a no-op -- but the wavefront rotates its priority diagonal
  /// every cycle regardless of requests, so a simulator that skips idle
  /// routers (active-set scheduling) must replay the skipped cycles to keep
  /// its grant sequence identical to a densely stepped run. Wrappers
  /// forward to their inner allocator.
  virtual void advance_priority(std::uint64_t cycles) {
    static_cast<void>(cycles);
  }

  /// Saves or loads the priority state for warm snapshot/restore. The
  /// default is a no-op for stateless architectures (maximum-size); every
  /// stateful architecture overrides it. A load must read bytes an
  /// identically configured allocator saved.
  virtual void state(StateArchive& ar) { static_cast<void>(ar); }

 protected:
  /// Validates the request matrix shape and clears the grant matrix.
  void prepare(const BitMatrix& req, BitMatrix& gnt) const {
    NOCALLOC_CHECK(req.rows() == inputs_ && req.cols() == outputs_);
    gnt.resize(inputs_, outputs_);
  }

 private:
  std::size_t inputs_;
  std::size_t outputs_;
};

/// Allocator architectures evaluated in the paper.
enum class AllocatorKind {
  kSeparableInputFirst,   // sep_if
  kSeparableOutputFirst,  // sep_of
  kWavefront,             // wf
  kMaximumSize,           // reference upper bound (Sec. 2.3)
};

/// Paper-style short name ("sep_if", "sep_of", "wf", "max").
std::string to_string(AllocatorKind kind);

/// Creates an allocator. `arb` selects the arbiter architecture for the
/// separable variants and is ignored by wavefront and maximum-size.
std::unique_ptr<Allocator> make_allocator(AllocatorKind kind,
                                          std::size_t inputs,
                                          std::size_t outputs,
                                          ArbiterKind arb = ArbiterKind::kRoundRobin);

}  // namespace nocalloc
