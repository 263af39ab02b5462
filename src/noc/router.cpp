#include "noc/router.hpp"

#include <algorithm>

#include "noc/invariants.hpp"

namespace nocalloc::noc {

Router::Router(int id, const RouterConfig& cfg, RoutingFunction& routing,
               PacketArena& arena)
    : id_(id),
      cfg_(cfg),
      routing_(routing),
      arena_(&arena),
      vcs_(cfg.partition.total_vcs()),
      input_vcs_(cfg.ports * vcs_),
      output_vcs_(cfg.ports * vcs_),
      wait_mask_(bits::word_count(cfg.ports * vcs_), 0),
      active_mask_(bits::word_count(cfg.ports * vcs_), 0),
      flits_in_(cfg.ports, nullptr),
      credits_out_(cfg.ports, nullptr),
      flits_out_(cfg.ports, nullptr),
      credits_in_(cfg.ports, nullptr),
      downstream_(cfg.ports, -1),
      va_req_(cfg.ports * vcs_),
      vgrant_(cfg.ports * vcs_, -1),
      ns_words_(cfg.ports, 0),
      sp_words_(cfg.ports, 0),
      req_out_port_(cfg.ports * vcs_, 0),
      out_alloc_words_(cfg.ports, 0),
      // All credits start at buffer_depth > 0.
      out_credit_words_(cfg.ports, bits::low_mask(vcs_)) {
  NOCALLOC_CHECK(cfg.ports > 0 && cfg.buffer_depth > 0);
  // The sparse request form packs a port's VCs, and the ports, into one
  // word each (SimInstance rejects larger shapes with a message).
  NOCALLOC_CHECK(vcs_ <= bits::kWordBits && cfg.ports <= bits::kWordBits);
  for (auto& ivc : input_vcs_) ivc.buffer.reset_capacity(cfg.buffer_depth);
  for (auto& ovc : output_vcs_) ovc.credits = cfg.buffer_depth;
  spec_grants_.reserve(cfg.ports);

  VcAllocatorConfig va{cfg.ports, cfg.partition, cfg.vc_alloc_kind, cfg.vc_arb,
                       /*sparse=*/true};
  vc_alloc_ = cfg.vc_alloc_factory ? cfg.vc_alloc_factory(va)
                                   : make_vc_allocator(va);
  NOCALLOC_CHECK(vc_alloc_ != nullptr);

  sw_stage_ = std::make_unique<SpeculativeSwitchAllocator>(
      SwitchAllocatorConfig{cfg.ports, vcs_, cfg.sw_alloc_kind, cfg.sw_arb},
      cfg.spec, cfg.sw_alloc_factory);
}

void Router::set_reference_path(bool ref) {
  vc_alloc_->set_reference_path(ref);
  sw_stage_->set_reference_path(ref);
}

void Router::attach_input(int port, Channel<Flit>* flits_in,
                          Channel<Credit>* credits_out) {
  NOCALLOC_CHECK(port >= 0 && static_cast<std::size_t>(port) < cfg_.ports);
  const std::size_t p = static_cast<std::size_t>(port);
  flits_in_[p] = flits_in;
  credits_out_[p] = credits_out;
  if (flits_in != nullptr) flits_in->set_consumer_wake(&rx_flit_pending_, p);
}

void Router::attach_output(int port, Channel<Flit>* flits_out,
                           Channel<Credit>* credits_in, int downstream_router) {
  NOCALLOC_CHECK(port >= 0 && static_cast<std::size_t>(port) < cfg_.ports);
  const std::size_t p = static_cast<std::size_t>(port);
  flits_out_[p] = flits_out;
  credits_in_[p] = credits_in;
  downstream_[p] = downstream_router;
  if (credits_in != nullptr) {
    credits_in->set_consumer_wake(&rx_credit_pending_, p);
  }
}

void Router::set_occupied_flag(bits::Word* word, std::size_t bit) {
  occupied_word_ = word;
  occupied_bit_ = bits::bit(bit);
  if (word != nullptr && busy_vcs_ > 0) *word |= occupied_bit_;
}

void Router::set_vc_state(std::size_t idx, VcState state) {
  const bool was_busy = input_vcs_[idx].state != VcState::kIdle;
  const bool busy = state != VcState::kIdle;
  input_vcs_[idx].state = state;
  if (busy != was_busy) {
    busy_vcs_ = busy ? busy_vcs_ + 1 : busy_vcs_ - 1;
    if (occupied_word_ != nullptr) {
      if (busy_vcs_ > 0) {
        *occupied_word_ |= occupied_bit_;
      } else {
        *occupied_word_ &= ~occupied_bit_;
      }
    }
  }
  const std::size_t w = bits::word_of(idx);
  const bits::Word b = bits::bit(idx);
  if (state == VcState::kWaitVc) {
    wait_mask_[w] |= b;
  } else {
    wait_mask_[w] &= ~b;
  }
  if (state == VcState::kActive) {
    active_mask_[w] |= b;
  } else {
    active_mask_[w] &= ~b;
  }
}

void Router::start_packet(std::size_t idx, const Flit& head) {
  NOCALLOC_DCHECK(head.head);
  InputVc& ivc = input_vcs_[idx];
  set_vc_state(idx, VcState::kWaitVc);
  ivc.route = head.route;
  ivc.out_vc = -1;
  NOCALLOC_DCHECK(ivc.route.out_port >= 0 &&
                 static_cast<std::size_t>(ivc.route.out_port) < cfg_.ports);
}

void Router::receive(Cycle now) {
  // Only ports with in-flight items are polled: sends raise the pending
  // bit, the drain check below clears it. A clear bit implies an empty
  // channel, so skipping it is identical to the full port scan.
  bits::Word flit_pending = rx_flit_pending_;
  while (flit_pending != 0) {
    const std::size_t p =
        static_cast<std::size_t>(std::countr_zero(flit_pending));
    flit_pending &= flit_pending - 1;
    Channel<Flit>* ch = flits_in_[p];
    // peek/pop moves the flit straight from the channel pipe into the VC
    // ring buffer, skipping the std::optional intermediate copy.
    if (Flit* flit = ch->peek(now)) {
      // The flit travels on the VC the upstream router assigned; with
      // credit-based flow control a free slot is guaranteed.
      NOCALLOC_DCHECK(flit->vc >= 0 &&
                      static_cast<std::size_t>(flit->vc) < vcs_);
      const std::size_t idx = p * vcs_ + static_cast<std::size_t>(flit->vc);
      InputVc& ivc = input_vcs_[idx];
      NOCALLOC_DCHECK(ivc.buffer.size() < cfg_.buffer_depth);
      // A head that lands at the front of an idle VC starts a packet now;
      // otherwise it waits behind the packet(s) already buffered.
      const bool at_front = ivc.buffer.empty();
      ivc.buffer.push_back(std::move(*flit));
      ch->pop();
      if (at_front && ivc.state == VcState::kIdle) {
        start_packet(idx, ivc.buffer.front());
      }
    }
    if (ch->empty()) rx_flit_pending_ &= ~bits::bit(p);
  }
  bits::Word credit_pending = rx_credit_pending_;
  while (credit_pending != 0) {
    const std::size_t p =
        static_cast<std::size_t>(std::countr_zero(credit_pending));
    credit_pending &= credit_pending - 1;
    Channel<Credit>* ch = credits_in_[p];
    if (const Credit* credit = ch->peek(now)) {
      OutputVc& ovc = output_vc(p, static_cast<std::size_t>(credit->vc));
      NOCALLOC_DCHECK(ovc.credits < cfg_.buffer_depth);
      ++ovc.credits;
      out_credit_words_[p] |= bits::bit(static_cast<std::size_t>(credit->vc));
      ch->pop();
    }
    if (ch->empty()) rx_credit_pending_ &= ~bits::bit(p);
  }
}

void Router::allocate(Cycle now) {
  // The Network calls allocate() only while a VC is waiting or active (a
  // cycle without packets cannot produce any request). Priority state is
  // caught up here over the cycles without a call, so grant sequences stay
  // bit-identical to a densely stepped run. (An all-empty allocation cycle
  // is equivalent to advance_priority(1) for every allocator architecture:
  // wavefront diagonals rotate unconditionally, separable arbiters and
  // pre-selects update only on grants, so theirs is a no-op. A stage
  // without requests is replayed the same way below, except on the
  // reference path, which runs both stages on every call.)
  if (now > next_alloc_cycle_) {
    const std::uint64_t gap = now - next_alloc_cycle_;
    vc_alloc_->advance_priority(gap);
    sw_stage_->advance_priority(gap);
  }
  next_alloc_cycle_ = now + 1;
  const bool run_all = vc_alloc_->reference_path();

  const bool speculative = cfg_.spec != SpecMode::kNonSpeculative;
  const bits::Word class_span = bits::low_mask(cfg_.partition.vcs_per_class());

  // --- VC allocation requests (heads still waiting for an output VC) -------
  // The candidate set (free VCs of the packet's class at the requested
  // output) is one word op against the derived allocated-mask. Waiting
  // heads also bid speculatively for the switch in the same cycle, when the
  // stage has a speculative side.
  std::size_t n_vreq = 0;
  bits::for_each_set(wait_mask_.data(), wait_mask_.size(), [&](std::size_t i) {
    InputVc& ivc = input_vcs_[i];
    NOCALLOC_DCHECK(!ivc.buffer.empty() && ivc.buffer.front().head);
    const Packet& pkt = arena_->get(ivc.buffer.front().packet);
    const auto out_port = static_cast<std::size_t>(ivc.route.out_port);
    const std::size_t m = message_class_of(pkt.type);
    const std::size_t base =
        cfg_.partition.class_base(m, ivc.route.resource_class);
    const bits::Word mask = (class_span << base) & ~out_alloc_words_[out_port];
    va_req_[n_vreq++] = {static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(out_port), mask};
    if (speculative) {
      sp_words_[i / vcs_] |= bits::bit(i % vcs_);
      req_out_port_[i] = static_cast<std::uint8_t>(out_port);
    }
  });

  if (n_vreq != 0 || run_all) {
    vc_alloc_->allocate_sparse(va_req_.data(), n_vreq, vgrant_);
    if (checker_ != nullptr) {
      checker_->on_vc_alloc(*this, now, va_req_.data(), n_vreq, vgrant_);
    }
  } else {
    vc_alloc_->advance_priority(1);
  }

  // --- Switch allocation requests (from pre-VA state) ----------------------
  bits::Word ns_any = 0;
  bits::for_each_set(
      active_mask_.data(), active_mask_.size(), [&](std::size_t i) {
        InputVc& ivc = input_vcs_[i];
        if (ivc.buffer.empty()) return;
        // No downstream slot: do not bid.
        if ((out_credit_words_[static_cast<std::size_t>(ivc.route.out_port)] &
             bits::bit(static_cast<std::size_t>(ivc.out_vc))) == 0) {
          return;
        }
        ns_words_[i / vcs_] |= bits::bit(i % vcs_);
        ns_any |= bits::bit(i / vcs_);
        req_out_port_[i] = static_cast<std::uint8_t>(ivc.route.out_port);
      });

  // --- Commit VC grants (heads acquire their output VC this cycle) ---------
  for (std::size_t k = 0; k < n_vreq; ++k) {
    const std::size_t i = va_req_[k].input;
    if (vgrant_[i] < 0) continue;
    InputVc& ivc = input_vcs_[i];
    const std::size_t out_vc = static_cast<std::size_t>(vgrant_[i]) % vcs_;
    vgrant_[i] = -1;  // restore the all--1 contract for the next cycle
    const auto out_port = static_cast<std::size_t>(ivc.route.out_port);
    NOCALLOC_DCHECK((out_alloc_words_[out_port] & bits::bit(out_vc)) == 0);
    out_alloc_words_[out_port] |= bits::bit(out_vc);
    ivc.out_vc = static_cast<int>(out_vc);
    set_vc_state(i, VcState::kActive);
    ++stats_.vc_allocs;
  }

  // --- Switch allocation and commit ----------------------------------------
  // With no request reaching the stage, its allocator call and commit scan
  // are no-ops on every piece of state they touch but the wavefront
  // diagonals, so the stage is replayed as advance_priority(1).
  if (ns_any != 0 || (speculative && n_vreq != 0) || run_all) {
    sw_stage_->allocate_sparse(ns_words_.data(), req_out_port_.data(),
                               sp_words_.data(), req_out_port_.data(),
                               spec_grants_);
    if (checker_ != nullptr) {
      checker_->on_sw_alloc(*this, now, ns_words_.data(),
                            req_out_port_.data(), sp_words_.data(),
                            req_out_port_.data(), spec_grants_);
    }
    for (std::size_t p = 0; p < cfg_.ports; ++p) {
      const SpecSwitchGrant& g = spec_grants_[p];
      if (g.nonspec.granted()) {
        commit_grant(p, static_cast<std::size_t>(g.nonspec.vc), now);
      } else if (g.spec.granted()) {
        // A speculative grant only holds if the head also won VC allocation
        // this cycle and the fresh output VC has a credit available.
        const std::size_t v = static_cast<std::size_t>(g.spec.vc);
        InputVc& ivc = input_vc(p, v);
        const bool va_won = ivc.state == VcState::kActive && ivc.out_vc >= 0;
        if (va_won &&
            (out_credit_words_[static_cast<std::size_t>(ivc.route.out_port)] &
             bits::bit(static_cast<std::size_t>(ivc.out_vc))) != 0) {
          commit_grant(p, v, now);
          ++stats_.spec_grants_used;
        } else {
          ++stats_.misspeculations;
        }
      }
    }
    std::fill(ns_words_.begin(), ns_words_.end(), bits::Word{0});
    std::fill(sp_words_.begin(), sp_words_.end(), bits::Word{0});
  } else {
    sw_stage_->advance_priority(1);
  }
}

void Router::commit_grant(std::size_t port, std::size_t vc, Cycle now) {
  const std::size_t idx = port * vcs_ + vc;
  InputVc& ivc = input_vcs_[idx];
  NOCALLOC_DCHECK(ivc.state == VcState::kActive && !ivc.buffer.empty());

  Flit flit = std::move(ivc.buffer.front());
  ivc.buffer.pop_front();

  const std::size_t out_port = static_cast<std::size_t>(ivc.route.out_port);
  const std::size_t out_vc = static_cast<std::size_t>(ivc.out_vc);
  OutputVc& ovc = output_vc(out_port, out_vc);
  NOCALLOC_DCHECK(ovc.credits > 0);
  --ovc.credits;
  if (ovc.credits == 0) out_credit_words_[out_port] &= ~bits::bit(out_vc);

  flit.vc = static_cast<int>(out_vc);
  if (flit.head) {
    // Lookahead routing: attach the downstream router's route now, so the
    // routing logic there stays off the critical path. Terminal ports need
    // no route.
    const int peer = downstream_[out_port];
    if (peer >= 0) {
      flit.route = routing_.route(peer, arena_->get(flit.packet),
                                  ivc.route.resource_class);
      if (checker_ != nullptr) {
        checker_->on_route(*this, now, static_cast<int>(out_port),
                           ivc.route.resource_class,
                           flit.route.resource_class);
      }
    } else {
      flit.route = RouteInfo{};
    }
  }

  // Switch traversal folded into the wire: the grant goes straight into the
  // output channel, whose latency carries the extra ST cycle. SA grants form
  // a port matching (at most one grant per output port per cycle), which is
  // exactly the channel's one-send-per-cycle protocol.
  const bool tail = flit.tail;
  NOCALLOC_DCHECK(flits_out_[out_port] != nullptr);
  flits_out_[out_port]->send(std::move(flit), now);
  ++stats_.flits_routed;

  // The freed buffer slot is credited upstream on the mirror channel.
  if (credits_out_[port] != nullptr) {
    credits_out_[port]->send(Credit{static_cast<int>(vc)}, now);
  }

  if (tail) {
    out_alloc_words_[out_port] &= ~bits::bit(out_vc);
    ivc.out_vc = -1;
    if (!ivc.buffer.empty()) {
      start_packet(idx, ivc.buffer.front());
    } else {
      set_vc_state(idx, VcState::kIdle);
    }
  }
}

std::size_t Router::output_congestion(int out_port) const {
  std::size_t used = 0;
  const std::size_t p = static_cast<std::size_t>(out_port);
  for (std::size_t v = 0; v < vcs_; ++v) {
    used += cfg_.buffer_depth - output_vcs_[p * vcs_ + v].credits;
  }
  return used;
}

std::size_t Router::buffered_flits() const {
  std::size_t n = 0;
  for (const auto& ivc : input_vcs_) n += ivc.buffer.size();
  return n;
}

void Router::state(StateArchive& ar) {
  ar.tag(0x40517E40u);
  for (std::size_t idx = 0; idx < input_vcs_.size(); ++idx) {
    InputVc& ivc = input_vcs_[idx];
    ring_state(ar, ivc.buffer, [&](Flit& flit) { noc::state(ar, flit); });
    // The occupancy masks, busy count and occupied bit are a pure function
    // of the per-VC states; set_vc_state moves them from the old state.
    VcState vc_state = ivc.state;
    ar.pod(vc_state);
    if (ar.loading()) set_vc_state(idx, vc_state);
    noc::state(ar, ivc.route);
    ar.pod(ivc.out_vc);
  }
  // Per output VC: its allocated bit as one byte, then its credits. A load
  // rebuilds both per-port words from them.
  for (std::size_t p = 0; p < cfg_.ports; ++p) {
    if (ar.loading()) {
      out_alloc_words_[p] = 0;
      out_credit_words_[p] = 0;
    }
    for (std::size_t v = 0; v < vcs_; ++v) {
      auto allocated =
          static_cast<std::uint8_t>((out_alloc_words_[p] >> v) & 1);
      ar.pod(allocated);
      OutputVc& ovc = output_vc(p, v);
      ar.u64(ovc.credits);
      if (ar.loading()) {
        NOCALLOC_CHECK(allocated <= 1 && ovc.credits <= cfg_.buffer_depth);
        if (allocated != 0) out_alloc_words_[p] |= bits::bit(v);
        if (ovc.credits > 0) out_credit_words_[p] |= bits::bit(v);
      }
    }
  }
  if (ar.loading()) {
    // The receive-pending words are cleared here and re-marked exactly by
    // the incoming channels' loads, which follow the routers'.
    rx_flit_pending_ = 0;
    rx_credit_pending_ = 0;
  }
  ar.u64(next_alloc_cycle_);
  ar.pod(stats_);
  vc_alloc_->state(ar);
  sw_stage_->state(ar);
}

}  // namespace nocalloc::noc
