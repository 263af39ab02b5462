// Network terminal: source-queued injection with credit-based backpressure
// towards its router's input port, ejection with immediate credit return,
// and request/reply transaction handling (replies take priority over fresh
// requests, Sec. 3.2).
//
// Each cycle has three terminal phases, driven by the Network: generate()
// polls the traffic source (every terminal, every cycle, so the RNG draw
// sequence never depends on scheduling; the synthetic RequestGenerator's
// Bernoulli test is inlined, other sources keep the virtual call), inject()
// sends at most one flit, and receive() takes arriving credits and ejected
// flits. The terminal keeps its bit in the Network's injecting set equal to
// "has a packet to send": generate() and enqueue_reply() set it, and
// inject() clears it when the last queued packet leaves, so the Network
// calls inject() only where there is something to inject.
#pragma once

#include <functional>
#include <memory>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "common/ring.hpp"
#include "noc/channel.hpp"
#include "noc/packet_arena.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "noc/types.hpp"
#include "vc/vc_partition.hpp"

namespace nocalloc::noc {

class InvariantChecker;

class Terminal {
 public:
  /// Invoked when a packet's tail flit is ejected at this terminal. The
  /// packet reference is valid only for the duration of the call; the
  /// terminal releases the arena slot afterwards.
  using EjectCallback = std::function<void(const Packet&, Cycle)>;

  Terminal(int id, int router, const VcPartition& partition,
           std::size_t buffer_depth, RoutingFunction& routing,
           std::unique_ptr<TrafficSource> source, PacketArena& arena,
           EjectCallback on_eject);

  int id() const { return id_; }

  /// Wires the four channels between terminal and router.
  void attach(Channel<Flit>* to_router, Channel<Credit>* credits_from_router,
              Channel<Flit>* from_router, Channel<Credit>* credits_to_router);

  /// Registers the terminal's bit in the Network's injecting set, kept set
  /// iff queued_packets() > 0. Must be set before the first generate().
  void set_injecting_flag(bits::Word* word, std::size_t bit) {
    injecting_word_ = word;
    injecting_bit_ = bits::bit(bit);
  }

  /// Polls the traffic source once (if generation is enabled) and queues
  /// the request it produces, if any.
  void generate(Cycle now) {
    if (!generate_) return;
    NOCALLOC_DCHECK(next_id_ != nullptr && injecting_word_ != nullptr);
    if (generator_ != nullptr) {
      if (!generator_->fires()) return;
      generator_->fill(now, *next_id_, scratch_);
    } else if (!source_->maybe_generate(now, *next_id_, scratch_)) {
      return;
    }
    queue_request();
  }

  /// Injection and receive phases, called by the Network each cycle after
  /// generation: inject() only while queued_packets() > 0, receive() only
  /// on cycles with an arrival. Flits and credits are written straight into
  /// the attached channels.
  void inject(Cycle now);
  void receive(Cycle now);

  /// Packets waiting (or in flight) in the source queues.
  std::size_t queued_packets() const {
    return reply_queue_.size() + request_queue_.size() +
           (current_ != kInvalidPacket ? 1 : 0);
  }

  /// Cumulative flits handed to the network.
  std::uint64_t flits_injected() const { return flits_injected_; }

  /// Cumulative flits ejected here (every flit, not just tails).
  std::uint64_t flits_ejected() const { return flits_ejected_; }

  /// Supplies globally unique packet ids; set by the Network.
  void set_id_counter(std::uint64_t* next_id) { next_id_ = next_id; }

  /// Marks subsequently created packets as measured (or not).
  void set_measuring(bool measuring) { measuring_ = measuring; }

  /// Queues a reply packet (served before new requests, Sec. 3.2). Called
  /// by the eject handler when a request transaction completes here; the
  /// packet is copied into the simulation's arena.
  void enqueue_reply(const Packet& reply) {
    const PacketHandle h = arena_->allocate();
    arena_->get(h) = reply;
    reply_queue_.push_back(h);
    *injecting_word_ |= injecting_bit_;
  }

  /// Enables/disables new request generation (replies still flow). Used by
  /// drain phases and conservation tests.
  void set_generation_enabled(bool enabled) { generate_ = enabled; }

  /// Pre-sizes both source queues to hold `n` packets each without growing.
  /// Saturation benches call this (via Network::reserve_steady_state) so a
  /// backlog bounded by the window length stays allocation-free.
  void reserve_source_queues(std::size_t n) {
    request_queue_.reserve(n);
    reply_queue_.reserve(n);
  }

  /// Forwards a new offered rate to the traffic source; returns false when
  /// the source has no rate knob (trace replay).
  bool set_request_rate(double rate) { return source_->set_request_rate(rate); }

  /// Saves or loads the terminal's mutable state: source queues, the packet
  /// mid-injection, per-VC credits, flit counters, flags, and the traffic
  /// source's own state. Channel contents are owned (and serialized) by the
  /// Network. A load rebuilds the injecting bit from the restored queues.
  void state(StateArchive& ar);

 private:
  friend class InvariantChecker;  // audits credits_ for conservation checks

  /// Copies the freshly generated scratch_ packet into the arena and
  /// queues it.
  void queue_request();
  void stage_flit(Cycle now);

  int id_;
  int router_;
  VcPartition partition_;  // by value: must outlive any caller's config
  std::size_t buffer_depth_;
  RoutingFunction& routing_;
  std::unique_ptr<TrafficSource> source_;
  // source_ when it is the synthetic generator (polled without a virtual
  // call), else null.
  RequestGenerator* generator_;
  PacketArena* arena_;
  EjectCallback on_eject_;

  Channel<Flit>* to_router_ = nullptr;
  Channel<Credit>* credits_from_router_ = nullptr;
  Channel<Flit>* from_router_ = nullptr;
  Channel<Credit>* credits_to_router_ = nullptr;

  GrowRing<PacketHandle> request_queue_;
  GrowRing<PacketHandle> reply_queue_;

  // Packet currently being injected flit by flit.
  PacketHandle current_ = kInvalidPacket;
  std::size_t current_sent_ = 0;
  int current_vc_ = -1;
  std::size_t current_class_ = 0;

  Packet scratch_;  // staging buffer for the traffic source's output

  std::vector<std::size_t> credits_;  // per router-input VC

  std::uint64_t* next_id_ = nullptr;
  bits::Word* injecting_word_ = nullptr;
  bits::Word injecting_bit_ = 0;
  std::uint64_t flits_injected_ = 0;
  std::uint64_t flits_ejected_ = 0;
  bool measuring_ = false;
  bool generate_ = true;
};

}  // namespace nocalloc::noc
