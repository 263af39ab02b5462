// Resource-class transition relation, as *observed* by exhaustively driving
// a routing function (src/verify/cdg.*). This is the single source of truth
// for which class-to-class moves the protocol layer may legally perform:
// the static passes compare it against the VcPartition's allowed relation,
// and the runtime InvariantChecker validates every lookahead routing
// decision against it (noc/invariants.*, check id "route-legality").
//
// The type is header-only and free of any simulator include, so the
// checker (noc/invariants.hpp) can hold one without pulling the analysis
// headers into every simulator file. Both directories build into one
// library, nocalloc_noc: SimInstance computes the relation with
// verify::relation_for_config whenever check_invariants is set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nocalloc::verify {

class TransitionRelation {
 public:
  /// Empty relation; InvariantChecker treats it as "no relation installed".
  TransitionRelation() = default;

  /// Relation over `classes` resource classes with no transitions allowed.
  explicit TransitionRelation(std::size_t classes)
      : classes_(classes), allowed_(classes * classes, 0) {}

  std::size_t classes() const { return classes_; }
  bool empty() const { return classes_ == 0; }

  void set(std::size_t from, std::size_t to) {
    allowed_[from * classes_ + to] = 1;
  }

  /// Out-of-range classes are never allowed (a routing function emitting a
  /// class the partition does not know about is exactly the bug to catch).
  bool transition_allowed(std::size_t from, std::size_t to) const {
    if (from >= classes_ || to >= classes_) return false;
    return allowed_[from * classes_ + to] != 0;
  }

  std::size_t count() const {
    std::size_t n = 0;
    for (const std::uint8_t b : allowed_) n += b;
    return n;
  }

  bool operator==(const TransitionRelation& other) const {
    return classes_ == other.classes_ && allowed_ == other.allowed_;
  }

 private:
  std::size_t classes_ = 0;
  std::vector<std::uint8_t> allowed_;  // [from * classes_ + to]
};

}  // namespace nocalloc::verify
