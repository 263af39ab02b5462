// Input-queued virtual-channel router with the two-stage pipeline of
// Sec. 3.2: VC allocation and (speculative) switch allocation happen in the
// first stage, switch traversal in the second. Input buffers are statically
// partitioned with a fixed number of flit slots per VC; flow control is
// credit-based; routing is lookahead (the route for the downstream router is
// computed while a head flit traverses this one).
//
// Cycle protocol, driven by the Network in this order for every router:
//   allocate(t)  -- VA for waiting heads, SA for ready flits (and, on a
//                   speculative router, for waiting heads too); winners
//                   traverse the crossbar and are written
//                   straight into the output channels (lookahead routes
//                   attached to heads, freed buffer slots credited upstream)
//   receive(t)   -- arriving flits enter input VC buffers, arriving credits
//                   replenish output VC counters (visible from t+1)
//
// The switch-traversal pipeline stage is folded into the wires: a grant at
// cycle t used to sit in a crossbar register and enter the channel at t+1;
// instead the channel latency of every router-driven link is one higher and
// the flit is sent at t, arriving on the exact same cycle with two fewer
// copies and no per-port staging state.
//
// Switch allocation is one stage on every router: a SpeculativeSwitchAllocator
// in the configured SpecMode, which on a nonspec router has no speculative
// side and behaves as its bare inner allocator. One call site, one commit
// loop and one checker hook serve all three modes.
//
// The allocator stage issues its requests in sparse single-word form (one
// FastVcRequest per waiting head; per-port VC words plus a requested-output
// byte per VC for SA), which every allocator family's allocate_sparse()
// runs through its single-word kernel over flat arbiter banks
// (arbiter/arbiter_bank.hpp). Hence V = M*R*C and P must each fit one
// 64-bit word (the allocator constructors reject wider shapes). The
// per-cycle path is allocation-free in steady state: input VC buffers are
// fixed-capacity rings and the request/grant scratch is sized once.
//
// Scheduling state: occupied input VCs are tracked in packed bitmasks
// (wait_mask_ / active_mask_) so allocate() touches only VCs that hold
// packets, and set_vc_state() keeps the router's bit in the Network's
// occupied set (any waiting or active VC), so the Network calls allocate()
// only while there is something to allocate. Per-port receive-pending words
// hold a bit iff the port's incoming channel is non-empty, so receive() --
// which the Network calls only on cycles with an arrival -- polls only those
// ports. Cycles without an allocate() call, and a stage (or one side of the
// switch-allocation stage) without requests, are replayed through the
// allocators' advance_priority(), which keeps the results bit-identical to
// a densely stepped run. The reference path runs both stages on every call
// instead, so diffing it against the kernels checks the stage skip too. An
// attached InvariantChecker sees exactly the calls an unchecked run makes.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/bitops.hpp"
#include "common/ring.hpp"
#include "noc/channel.hpp"
#include "noc/packet_arena.hpp"
#include "noc/routing.hpp"
#include "noc/types.hpp"
#include "sa/speculative_switch_allocator.hpp"
#include "vc/vc_allocator.hpp"
#include "vc/vc_partition.hpp"

namespace nocalloc::noc {

class InvariantChecker;

struct RouterConfig {
  std::size_t ports = 0;
  VcPartition partition{1, 1, 1};
  std::size_t buffer_depth = 8;  // flit slots per VC (Sec. 3.2)
  AllocatorKind vc_alloc_kind = AllocatorKind::kSeparableInputFirst;
  ArbiterKind vc_arb = ArbiterKind::kRoundRobin;
  AllocatorKind sw_alloc_kind = AllocatorKind::kSeparableInputFirst;
  ArbiterKind sw_arb = ArbiterKind::kRoundRobin;
  SpecMode spec = SpecMode::kPessimistic;
  /// Optional allocator factories: when set they replace make_vc_allocator /
  /// make_switch_allocator for this router. The invariant tests use them to
  /// inject deliberately broken allocators; the switch factory builds every
  /// inner allocator of the switch-allocation stage, in any SpecMode.
  std::function<std::unique_ptr<VcAllocator>(const VcAllocatorConfig&)>
      vc_alloc_factory;
  SwitchAllocatorFactory sw_alloc_factory;
};

/// Counters exposed for benches and tests.
struct RouterStats {
  std::uint64_t flits_routed = 0;      // flits that traversed the crossbar
  std::uint64_t vc_allocs = 0;         // successful VC allocations
  std::uint64_t spec_grants_used = 0;  // speculative switch grants that held
  std::uint64_t misspeculations = 0;   // spec grants wasted (VA miss/credit)
};

class Router {
 public:
  Router(int id, const RouterConfig& cfg, RoutingFunction& routing,
         PacketArena& arena);

  int id() const { return id_; }
  std::size_t ports() const { return cfg_.ports; }
  std::size_t vcs() const { return vcs_; }
  const RouterStats& stats() const { return stats_; }

  /// Wires port `port`'s input side: flits arrive on `flits_in`, credits for
  /// freed buffer slots are returned on `credits_out`.
  void attach_input(int port, Channel<Flit>* flits_in,
                    Channel<Credit>* credits_out);

  /// Wires port `port`'s output side. `downstream_router` is the router id
  /// the flits will reach (-1 for terminal ports, where no lookahead route
  /// is needed).
  void attach_output(int port, Channel<Flit>* flits_out,
                     Channel<Credit>* credits_in, int downstream_router);

  void allocate(Cycle now);

  void receive(Cycle now);

  /// Registers the router's bit in the Network's occupied set: set_vc_state
  /// keeps bit `bit` of `*word` set iff an input VC is waiting or active.
  /// Null detaches (a standalone router keeps only its own count).
  void set_occupied_flag(bits::Word* word, std::size_t bit);

  /// Buffer slots claimed downstream of `out_port` (sum of consumed credits
  /// over its VCs) -- the congestion estimate UGAL reads.
  std::size_t output_congestion(int out_port) const;

  /// Total flits currently buffered (used by drain checks in tests/benches).
  std::size_t buffered_flits() const;

  /// Attaches a protocol checker; allocate() reports every allocator call
  /// it makes, with its requests and grants, before committing. It makes
  /// the same calls with or without one. Null detaches.
  void set_invariant_checker(InvariantChecker* checker) { checker_ = checker; }

  /// Routes every allocator through its byte-loop reference implementation
  /// (the differential oracle) instead of its single-word kernel, and runs
  /// both allocation stages on every allocate() call, requests or not;
  /// results are bit-identical either way.
  void set_reference_path(bool ref);

  /// Saves or loads the router's mutable state: input VC buffers and state
  /// machines, output VC credit counters, allocator priorities, the
  /// catch-up cycle, and statistics. The occupancy masks, busy count and
  /// occupied bit are rebuilt on load; the receive-pending words are
  /// cleared, for the incoming channels' own loads to re-mark.
  void state(StateArchive& ar);

 private:
  friend class InvariantChecker;  // audits VC state and credit counters
  enum class VcState : std::uint8_t { kIdle, kWaitVc, kActive };

  struct InputVc {
    FixedRing<Flit> buffer;
    VcState state = VcState::kIdle;
    RouteInfo route;   // valid in kWaitVc/kActive
    int out_vc = -1;   // granted output VC (local index), valid in kActive
  };

  struct OutputVc {
    std::size_t credits = 0;
  };

  InputVc& input_vc(std::size_t port, std::size_t vc) {
    return input_vcs_[port * vcs_ + vc];
  }
  OutputVc& output_vc(std::size_t port, std::size_t vc) {
    return output_vcs_[port * vcs_ + vc];
  }

  /// Moves input VC `idx` to `state`, keeping the packed occupancy masks in
  /// sync (bit idx of wait_mask_ iff kWaitVc, of active_mask_ iff kActive),
  /// and busy_vcs_ and the occupied bit with them.
  void set_vc_state(std::size_t idx, VcState state);

  /// Activates a waiting head: called when a head flit reaches the front of
  /// an idle VC's buffer.
  void start_packet(std::size_t idx, const Flit& head);

  /// Commits one switch grant: pops the flit, updates credits/VC state and
  /// sends the flit into its output channel (plus the freed-slot credit
  /// upstream).
  void commit_grant(std::size_t port, std::size_t vc, Cycle now);

  int id_;
  RouterConfig cfg_;
  RoutingFunction& routing_;
  PacketArena* arena_;
  std::size_t vcs_;

  std::vector<InputVc> input_vcs_;    // [port * V + vc]
  std::vector<OutputVc> output_vcs_;  // [port * V + vc]

  // Packed occupancy masks over input VC indices (port * V + vc).
  std::vector<bits::Word> wait_mask_;    // state == kWaitVc
  std::vector<bits::Word> active_mask_;  // state == kActive
  // Input VCs not in kIdle, and the Network's occupied bit for this router
  // (set iff busy_vcs_ > 0).
  std::size_t busy_vcs_ = 0;
  bits::Word* occupied_word_ = nullptr;
  bits::Word occupied_bit_ = 0;

  std::vector<Channel<Flit>*> flits_in_;
  std::vector<Channel<Credit>*> credits_out_;
  std::vector<Channel<Flit>*> flits_out_;
  std::vector<Channel<Credit>*> credits_in_;
  std::vector<int> downstream_;

  // Member scratch for allocate(), sized once. vgrant_ holds -1 everywhere
  // between cycles (allocate_sparse's contract); the commit scan resets
  // each entry it reads.
  std::vector<FastVcRequest> va_req_;  // waiting heads, ascending by input
  std::vector<int> vgrant_;            // [p * V + v]: granted output VC
  std::vector<bits::Word> ns_words_;   // [p]: SA-requesting VCs
  std::vector<bits::Word> sp_words_;   // [p]: speculative bids
  std::vector<std::uint8_t> req_out_port_;  // [p * V + v]: requested output
  std::vector<SpecSwitchGrant> spec_grants_;

  // The cycle the next allocate() call is expected at. When the scheduler
  // skipped cycles, allocate() first advances the allocators' priority
  // state by the gap so results match a dense run.
  Cycle next_alloc_cycle_ = 0;

  std::unique_ptr<VcAllocator> vc_alloc_;
  std::unique_ptr<SpeculativeSwitchAllocator> sw_stage_;  // every SpecMode

  // Receive-side pending masks: bit p is raised by a send on port p's
  // incoming flit/credit channel and cleared by receive() once the channel
  // drains, so a bit is set iff its channel holds an item and receive()
  // polls only ports with in-flight items. Derived state: empty at attach
  // (channels start empty) and rebuilt exactly on load by the channels.
  bits::Word rx_flit_pending_ = 0;
  bits::Word rx_credit_pending_ = 0;

  // Per-output-port words. Bit v of out_alloc_words_[p] is set iff output
  // VC (p, v) is allocated to an input VC -- the only record of ownership.
  // Bit v of out_credit_words_[p] mirrors output_vc(p, v).credits > 0
  // (derived, rebuilt on load). They turn the per-head candidate scan and
  // the per-bid credit check into single word ops.
  std::vector<bits::Word> out_alloc_words_;
  std::vector<bits::Word> out_credit_words_;

  InvariantChecker* checker_ = nullptr;
  RouterStats stats_;
};

}  // namespace nocalloc::noc
