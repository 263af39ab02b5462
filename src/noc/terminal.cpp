#include "noc/terminal.hpp"

#include <utility>

#include "common/check.hpp"

namespace nocalloc::noc {

Terminal::Terminal(int id, int router, const VcPartition& partition,
                   std::size_t buffer_depth, RoutingFunction& routing,
                   std::unique_ptr<TrafficSource> source, PacketArena& arena,
                   EjectCallback on_eject)
    : id_(id),
      router_(router),
      partition_(partition),
      buffer_depth_(buffer_depth),
      routing_(routing),
      source_(std::move(source)),
      generator_(dynamic_cast<RequestGenerator*>(source_.get())),
      arena_(&arena),
      on_eject_(std::move(on_eject)),
      credits_(partition.total_vcs(), buffer_depth) {
  NOCALLOC_CHECK(source_ != nullptr);
}

void Terminal::attach(Channel<Flit>* to_router,
                      Channel<Credit>* credits_from_router,
                      Channel<Flit>* from_router,
                      Channel<Credit>* credits_to_router) {
  to_router_ = to_router;
  credits_from_router_ = credits_from_router;
  from_router_ = from_router;
  credits_to_router_ = credits_to_router;
}

void Terminal::queue_request() {
  // New request arrivals enter the source queue regardless of backpressure
  // (the source queue is unbounded; its waiting time is part of packet
  // latency, as in the paper's latency-vs-injection-rate curves).
  scratch_.measured = measuring_;
  const PacketHandle h = arena_->allocate();
  arena_->get(h) = scratch_;
  request_queue_.push_back(h);
  *injecting_word_ |= injecting_bit_;
}

void Terminal::inject(Cycle now) {
  NOCALLOC_DCHECK(queued_packets() > 0);
  if (current_ == kInvalidPacket) {
    // Replies take priority over new requests (Sec. 3.2).
    GrowRing<PacketHandle>& q =
        !reply_queue_.empty() ? reply_queue_ : request_queue_;

    // Pick the injection VC: the freest VC of the packet's starting class.
    Packet& head = arena_->get(q.front());
    const std::size_t klass = routing_.at_injection(router_, head);
    const std::size_t m = message_class_of(head.type);
    const std::size_t base = partition_.class_base(m, klass);
    int best_vc = -1;
    std::size_t best_credits = 0;
    for (std::size_t c = 0; c < partition_.vcs_per_class(); ++c) {
      const std::size_t vc = base + c;
      if (credits_[vc] > best_credits) {
        best_credits = credits_[vc];
        best_vc = static_cast<int>(vc);
      }
    }
    if (best_vc < 0) return;  // all VCs of the class are backpressured

    current_ = q.front();
    q.pop_front();
    current_sent_ = 0;
    current_vc_ = best_vc;
    current_class_ = klass;
    head.injected = now;
  }

  if (credits_[static_cast<std::size_t>(current_vc_)] == 0) return;
  stage_flit(now);
}

void Terminal::stage_flit(Cycle now) {
  Packet& pkt = arena_->get(current_);
  Flit flit;
  flit.packet = current_;
  flit.index = current_sent_;
  flit.head = current_sent_ == 0;
  flit.tail = current_sent_ + 1 == pkt.length;
  flit.vc = current_vc_;
  if (flit.head) {
    // Lookahead route for the first router.
    flit.route = routing_.route(router_, pkt, current_class_);
  }

  --credits_[static_cast<std::size_t>(current_vc_)];
  ++flits_injected_;
  to_router_->send(std::move(flit), now);

  if (++current_sent_ == pkt.length) {
    current_ = kInvalidPacket;
    current_vc_ = -1;
    current_sent_ = 0;
    if (reply_queue_.empty() && request_queue_.empty()) {
      *injecting_word_ &= ~injecting_bit_;
    }
  }
}

void Terminal::receive(Cycle now) {
  if (credits_from_router_ != nullptr) {
    if (const Credit* credit = credits_from_router_->peek(now)) {
      const auto vc = static_cast<std::size_t>(credit->vc);
      NOCALLOC_DCHECK(credits_[vc] < buffer_depth_);
      ++credits_[vc];
      credits_from_router_->pop();
    }
  }
  if (from_router_ != nullptr) {
    if (const Flit* flit = from_router_->peek(now)) {
      // Ejection consumes the flit immediately and frees the slot.
      ++flits_ejected_;
      credits_to_router_->send(Credit{flit->vc}, now);
      const bool tail = flit->tail;
      const PacketHandle handle = flit->packet;
      from_router_->pop();
      if (tail) {
        // Arena chunks have stable addresses, so this reference survives an
        // allocation the eject handler may perform (e.g. enqueue_reply).
        const Packet& pkt = arena_->get(handle);
        on_eject_(pkt, now);
        arena_->release(handle);
      }
    }
  }
}

void Terminal::state(StateArchive& ar) {
  ar.tag(0x7E521AA1u);
  const auto handle = [&](PacketHandle& h) { ar.pod(h); };
  ring_state(ar, request_queue_, handle);
  ring_state(ar, reply_queue_, handle);
  ar.pod(current_);
  ar.u64(current_sent_);
  ar.pod(current_vc_);
  ar.u64(current_class_);
  ar.count(credits_.size());
  ar.pod_array(credits_.data(), credits_.size());
  ar.u64(flits_injected_);
  ar.u64(flits_ejected_);
  ar.pod(measuring_);
  ar.pod(generate_);
  source_->state(ar);
  if (ar.loading()) {
    if (queued_packets() > 0) {
      *injecting_word_ |= injecting_bit_;
    } else {
      *injecting_word_ &= ~injecting_bit_;
    }
  }
}

}  // namespace nocalloc::noc
