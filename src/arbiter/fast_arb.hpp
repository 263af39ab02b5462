// Devirtualized arbiter handle for the allocators' sparse kernels.
//
// The single-word fast paths used to hard-code RoundRobinArbiter; FastArb
// widens them to every arbiter kind with a packed single-word pick (today:
// the rotating-pointer round-robin and the least-recently-served matrix).
// pick() stays pure and selects the winner Arbiter::pick() selects on the
// equivalent byte vector, and update() applies the concrete on-success
// protocol, so driving an arbiter through FastArb evolves its priority state
// exactly as the virtual pick()/update() pair would.
#pragma once

#include "arbiter/matrix_arbiter.hpp"
#include "arbiter/round_robin_arbiter.hpp"

namespace nocalloc {

struct FastArb {
  RoundRobinArbiter* rr = nullptr;
  MatrixArbiter* mx = nullptr;

  /// Resolves the concrete type behind `a`; returns a handle with ok() ==
  /// false when the arbiter has no single-word kernel (width > 64 or an
  /// unknown architecture).
  static FastArb from(Arbiter& a) {
    FastArb fa;
    if (a.size() > bits::kWordBits) return fa;
    fa.rr = dynamic_cast<RoundRobinArbiter*>(&a);
    if (fa.rr == nullptr) fa.mx = dynamic_cast<MatrixArbiter*>(&a);
    return fa;
  }

  bool ok() const { return rr != nullptr || mx != nullptr; }

  /// Same winner as Arbiter::pick() on the byte vector holding the bits of
  /// `req`; pure.
  int pick(bits::Word req) const {
    return rr != nullptr ? rr_pick_word(req, rr->pointer())
                         : mx->pick_word(req);
  }

  void update(int winner) {
    if (rr != nullptr) {
      rr->update(winner);
    } else {
      mx->update(winner);
    }
  }

  /// Saves or loads the arbiter's priority state through the concrete
  /// (final) class, without a virtual call.
  void state(StateArchive& ar) {
    if (rr != nullptr) {
      rr->state(ar);
    } else {
      mx->state(ar);
    }
  }
};

}  // namespace nocalloc
