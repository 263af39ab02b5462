// Runtime invariant checker for the cycle-accurate simulator.
//
// The network results of Sec. 5 are only meaningful if the simulator honors
// the VC/credit/allocation protocol it claims to model: a credit leak or an
// illegal double-grant would shift every latency curve without failing a
// functional test. The InvariantChecker is always compiled and enabled per
// run (SimConfig::check_invariants, config key `check_invariants=true`); it
// hooks three kinds of boundaries:
//
//   - allocation results, validated on every allocator call
//     Router::allocate() makes, in the same sparse request/grant form the
//     allocator kernels consume and produce, so checked runs audit the code
//     production runs take:
//     VC grants must match valid requests from their candidate masks with
//     no output VC granted twice; switch grants must form a port matching;
//     speculative grants must obey the spec_req/spec_gnt masking rules of
//     Sec. 5.2 (a surviving speculative grant never conflicts with
//     non-speculative traffic on either side of the crossbar). Every grant
//     is looked up in the call's own requests, so a grant without a
//     request is caught whenever an allocator runs.
//
//   - step boundaries, validated after every Network::step(): per-VC input
//     state-machine legality, output-VC ownership (the router's per-port
//     allocated words against the active input VCs), the per-port credit
//     words against the credit counters, per-channel credit conservation
//     (upstream credits + in-flight flits/credits + downstream occupancy
//     must equal the buffer depth, on router links and terminal links
//     alike), network-wide flit conservation (injected = ejected + in
//     flight), and a deadlock watchdog that fires when buffered flits make
//     no progress for a configurable horizon.
//
//   - lookahead routes, validated as they commit against the resource-class
//     transition relation the static analysis extracts from the same
//     routing function (verify::relation_for_config); a checked SimInstance
//     installs it.
//
// The checker only observes: it sees exactly the allocator calls and steps
// an unchecked run makes (a stage without requests is skipped either way)
// and attaching it changes no simulator state, so a checked run audits the
// schedule production runs take.
//
// Violations are structured (cycle/router/port/VC plus a check id) and go
// to a configurable handler: the default prints and aborts, tests install
// throw_on_violation() and assert on the raised InvariantError.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/snapshot.hpp"
#include "noc/types.hpp"
#include "sa/speculative_switch_allocator.hpp"
#include "vc/vc_allocator.hpp"
#include "verify/relation.hpp"

namespace nocalloc::noc {

class Network;
class Router;

/// One protocol violation, pinned to its location. `router` is -1 for
/// network-wide checks; `port`/`vc` are -1 when not applicable.
struct InvariantViolation {
  Cycle cycle = 0;
  int router = -1;
  int port = -1;
  int vc = -1;
  std::string check;    // short id, e.g. "credit-conservation"
  std::string message;  // full description
};

/// "cycle 42 router 3 port 1 vc 0: credit-conservation: ...".
std::string to_string(const InvariantViolation& violation);

/// Thrown by the throw_on_violation() handler.
class InvariantError : public std::runtime_error {
 public:
  explicit InvariantError(InvariantViolation violation);
  const InvariantViolation& violation() const { return violation_; }

 private:
  InvariantViolation violation_;
};

/// Every check runs on every checked cycle; only the watchdog is tunable.
struct InvariantCheckerConfig {
  /// Cycles without any flit movement (while flits are buffered) before the
  /// deadlock watchdog fires; 0 disables the watchdog.
  std::size_t deadlock_cycles = 1000;
};

class InvariantChecker {
 public:
  using ViolationHandler = std::function<void(const InvariantViolation&)>;

  explicit InvariantChecker(InvariantCheckerConfig cfg = {});

  /// Replaces the default print-and-abort handler.
  void set_violation_handler(ViolationHandler handler);

  /// Installs a handler that throws InvariantError (what tests use).
  void throw_on_violation();

  /// Installs the resource-class transition relation that every lookahead
  /// routing decision is checked against (check id "route-legality"). The
  /// single source of truth is the relation *observed* by the static
  /// analysis exhaustively driving the routing function
  /// (verify::relation_for_config), not a hand-coded rule table; every
  /// SimInstance built with check_invariants installs it.
  void set_transition_relation(verify::TransitionRelation relation) {
    relation_ = std::move(relation);
  }
  const verify::TransitionRelation& transition_relation() const {
    return relation_;
  }

  /// Mutable access to the checker configuration (tests shorten the
  /// deadlock-watchdog horizon through this).
  InvariantCheckerConfig& config() { return cfg_; }

  // ---- Hooks ---------------------------------------------------------------
  // Called by Router::allocate() with the results of each allocator call
  // *before* they are committed, and by Network::step() after the receive
  // phase. Wiring happens via Network::attach_invariant_checker(). The
  // allocation hooks take the arguments of VcAllocator::allocate_sparse /
  // SpeculativeSwitchAllocator::allocate_sparse plus the grants those calls
  // produced.

  void on_vc_alloc(const Router& router, Cycle now, const FastVcRequest* req,
                   std::size_t n, const std::vector<int>& grant);
  /// Audits the switch-allocation stage in the router's SpecMode. Check id
  /// "sw-alloc" on a nonspec router (whose stage has no speculative side, so
  /// any speculative grant is one without a request), "spec-sw-alloc" on a
  /// speculative one.
  void on_sw_alloc(const Router& router, Cycle now, const bits::Word* ns_words,
                   const std::uint8_t* ns_out, const bits::Word* sp_words,
                   const std::uint8_t* sp_out,
                   const std::vector<SpecSwitchGrant>& grant);
  /// Called for every committed lookahead routing decision: a packet in
  /// resource class `from_class` was routed to `to_class` VCs at `out_port`.
  /// Validated against the transition relation installed by
  /// set_transition_relation(); a no-op while no relation is installed.
  void on_route(const Router& router, Cycle now, int out_port,
                std::size_t from_class, std::size_t to_class);
  void after_step(const Network& net);

  std::uint64_t checks_run() const { return checks_; }
  std::uint64_t violations_seen() const { return violations_; }

  /// Saves or loads the checker's counters and deadlock-watchdog state so a
  /// restored run's checker output is bit-identical to an uninterrupted one
  /// (config and handler are not state; the restoring checker keeps its
  /// own).
  void state(StateArchive& ar) {
    ar.u64(checks_);
    ar.u64(violations_);
    ar.u64(last_progress_cycle_);
    ar.u64(last_progress_signature_);
  }

 private:
  void report(InvariantViolation violation);

  void check_router_state(const Router& router, Cycle now);
  void check_link_credits(const Network& net);
  void check_flit_conservation(const Network& net);
  /// Audits the scheduler's sets both ways against VC states, source queues
  /// and channel contents: occupied iff a VC is waiting or active; injecting
  /// iff the terminal has a packet; inflight iff an incoming channel is
  /// non-empty; active iff occupied or inflight; receive-pending bits iff
  /// the port's channel is non-empty; and every due slot exactly the
  /// consumers with an item arriving at that cycle.
  void check_scheduler_sets(const Network& net);
  void check_progress(const Network& net);

  InvariantCheckerConfig cfg_;
  ViolationHandler handler_;
  verify::TransitionRelation relation_;  // empty => on_route() is a no-op
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
  // Deadlock watchdog state.
  Cycle last_progress_cycle_ = 0;
  std::uint64_t last_progress_signature_ = 0;
};

}  // namespace nocalloc::noc
