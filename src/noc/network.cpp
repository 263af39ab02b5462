#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.hpp"
#include "noc/invariants.hpp"

namespace nocalloc::noc {

namespace {

/// An active set of `n` consumers with every one of them active.
std::vector<bits::Word> all_active(std::size_t n) {
  std::vector<bits::Word> words(bits::word_count(n), ~bits::Word{0});
  if (n % bits::kWordBits != 0) {
    words.back() = bits::low_mask(n % bits::kWordBits);
  }
  return words;
}

// Snapshots store one flag byte per consumer, so the stream -- and the
// persisted snapshots and fingerprints built on it -- does not depend on how
// the active sets are packed in memory.
void active_state(StateArchive& ar, std::vector<bits::Word>& words,
                  std::size_t n) {
  if (ar.loading()) std::fill(words.begin(), words.end(), bits::Word{0});
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t flag = bits::test(words.data(), i);
    ar.pod(flag);
    if (ar.loading() && flag != 0) words[bits::word_of(i)] |= bits::bit(i);
  }
}

}  // namespace

Network::Network(const Topology& topo, const NetworkConfig& cfg,
                 RoutingFactory routing_factory,
                 Terminal::EjectCallback on_eject)
    : topo_(topo) {
  NOCALLOC_CHECK(cfg.router.ports == topo.ports());
  routing_ = routing_factory(*this);

  // Active-set words are sized before any channel takes a pointer into them.
  router_active_ = all_active(topo.num_routers());
  terminal_active_ = all_active(topo.num_terminals());

  const auto n_routers = static_cast<int>(topo.num_routers());
  for (int r = 0; r < n_routers; ++r) {
    routers_.push_back(
        std::make_unique<Router>(r, cfg.router, *routing_, arena_));
  }

  // `active` is the consumer's active-set words, `consumer` its index.
  auto new_flit_channel = [&](std::size_t latency,
                              std::vector<bits::Word>& active,
                              std::size_t consumer) {
    flit_channels_.push_back(std::make_unique<Channel<Flit>>(latency));
    flit_channels_.back()->set_consumer_active(
        &active[bits::word_of(consumer)], consumer % bits::kWordBits);
    return flit_channels_.back().get();
  };
  auto new_credit_channel = [&](std::size_t latency,
                                std::vector<bits::Word>& active,
                                std::size_t consumer) {
    credit_channels_.push_back(std::make_unique<Channel<Credit>>(latency));
    credit_channels_.back()->set_consumer_active(
        &active[bits::word_of(consumer)], consumer % bits::kWordBits);
    return credit_channels_.back().get();
  };

  // Inter-router links (flits one way, credits the other). Each channel
  // wakes its consumer on send, which is what keeps the active-set exact.
  // Router-driven channels carry the folded switch-traversal stage, so their
  // latency is the physical link latency plus one (a flit granted at cycle t
  // arrives at t + 1 + link.latency, exactly as with an explicit ST stage).
  for (const LinkSpec& link : topo.links()) {
    Channel<Flit>* flits =
        new_flit_channel(link.latency + 1, router_active_,
                         static_cast<std::size_t>(link.dst_router));
    Channel<Credit>* credits =
        new_credit_channel(link.latency + 1, router_active_,
                           static_cast<std::size_t>(link.src_router));
    routers_[static_cast<std::size_t>(link.src_router)]->attach_output(
        link.src_port, flits, credits, link.dst_router);
    routers_[static_cast<std::size_t>(link.dst_router)]->attach_input(
        link.dst_port, flits, credits);
    link_wirings_.push_back(LinkWiring{link, flits, credits});
  }

  // Terminals.
  Rng seeder(cfg.seed);
  const auto n_terminals = static_cast<int>(topo.num_terminals());
  for (int t = 0; t < n_terminals; ++t) {
    const int r = topo.router_of_terminal(t);
    const int port = topo.port_of_terminal(t);

    std::unique_ptr<TrafficSource> source =
        cfg.source_factory
            ? cfg.source_factory(t)
            : std::make_unique<RequestGenerator>(
                  t, topo.num_terminals(), cfg.pattern, cfg.request_rate,
                  seeder.split(static_cast<std::uint64_t>(t)));
    terminals_.push_back(std::make_unique<Terminal>(
        t, r, cfg.router.partition, cfg.router.buffer_depth, *routing_,
        std::move(source), arena_, on_eject));
    Terminal& term = *terminals_.back();
    term.set_id_counter(&next_packet_id_);

    const auto rs = static_cast<std::size_t>(r);
    const auto ts = static_cast<std::size_t>(t);
    // Terminal-driven channels keep latency 1; router-driven ones (ejected
    // flits, credits back to the terminal) get the +1 ST fold.
    Channel<Flit>* inj_flits = new_flit_channel(1, router_active_, rs);
    Channel<Credit>* inj_credits =
        new_credit_channel(2, terminal_active_, ts);
    Channel<Flit>* ej_flits = new_flit_channel(2, terminal_active_, ts);
    Channel<Credit>* ej_credits = new_credit_channel(1, router_active_, rs);
    routers_[rs]->attach_input(port, inj_flits, inj_credits);
    routers_[rs]->attach_output(port, ej_flits, ej_credits, -1);
    term.attach(inj_flits, inj_credits, ej_flits, ej_credits);
    terminal_wirings_.push_back(TerminalWiring{t, r, port, inj_flits,
                                               inj_credits, ej_flits,
                                               ej_credits});
  }
}

void Network::step() {
  const Cycle t = now_;
  const std::size_t nr = routers_.size();
  // Allocate pass, in ascending router order. The word is re-read above each
  // visited router: a send can wake a higher-index router mid-pass, and that
  // router joins in, where its work is a harmless no-op -- the sent item
  // only becomes receivable one cycle later.
  std::size_t visited = 0;
  for (std::size_t w = 0; w < router_active_.size(); ++w) {
    bits::Word live = router_active_[w];
    while (live != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(live));
      routers_[w * bits::kWordBits + b]->allocate(t);
      ++visited;
      live = router_active_[w] & ~((bits::Word{2} << b) - 1);  // bits > b
    }
  }
  perf_.router_steps_skipped += nr - visited;
  // Terminals poll their source every cycle regardless of the active set,
  // preserving the RNG draw sequence of a dense run.
  for (auto& term : terminals_) term->inject(t);
  // Receive passes, retiring each quiescent consumer right after its
  // receive. Nothing a later receive does can give a retired router work
  // except a terminal's ejection credit, and that send re-wakes it; so at
  // the end of the cycle the active sets hold exactly the consumers with
  // pending work, which the invariant hook below audits.
  bits::for_each_set(router_active_.data(), router_active_.size(),
                     [&](std::size_t r) {
    Router& router = *routers_[r];
    router.receive(t);
    if (router.idle()) router_active_[bits::word_of(r)] &= ~bits::bit(r);
  });
  bits::for_each_set(terminal_active_.data(), terminal_active_.size(),
                     [&](std::size_t i) {
    terminals_[i]->receive(t);
    const TerminalWiring& tw = terminal_wirings_[i];
    if (tw.ej_flits->empty() && tw.inj_credits->empty()) {
      terminal_active_[bits::word_of(i)] &= ~bits::bit(i);
    }
  });

  perf_.router_steps_total += nr;
  ++perf_.cycles;
  if (checker_ != nullptr) checker_->after_step(*this);
  ++now_;
}

void Network::attach_invariant_checker(InvariantChecker* checker) {
  checker_ = checker;
  for (auto& r : routers_) r->set_invariant_checker(checker);
}

void Network::set_reference_path(bool ref) {
  for (auto& r : routers_) r->set_reference_path(ref);
}

void Network::set_measuring(bool measuring) {
  for (auto& term : terminals_) term->set_measuring(measuring);
}

void Network::set_generation_enabled(bool enabled) {
  for (auto& term : terminals_) term->set_generation_enabled(enabled);
}

std::uint64_t Network::flits_injected() const {
  std::uint64_t n = 0;
  for (const auto& term : terminals_) n += term->flits_injected();
  return n;
}

std::uint64_t Network::flits_ejected() const {
  std::uint64_t n = 0;
  for (const auto& term : terminals_) n += term->flits_ejected();
  return n;
}

std::size_t Network::in_flight() const {
  std::size_t n = 0;
  for (const auto& r : routers_) n += r->buffered_flits();
  for (const auto& term : terminals_) n += term->queued_packets();
  for (const auto& ch : flit_channels_) n += ch->size();
  return n;
}

std::size_t Network::output_congestion(int router, int out_port) const {
  return routers_[static_cast<std::size_t>(router)]->output_congestion(
      out_port);
}

bool Network::set_request_rate(double rate) {
  bool ok = true;
  for (auto& term : terminals_) ok = term->set_request_rate(rate) && ok;
  return ok;
}

void Network::reserve_steady_state(double rate, std::size_t cycles) {
  // Upper bound on packets a terminal can put into play over the window:
  // every generated request plus the reply it may trigger, doubled for
  // headroom against uneven reply concentration under random traffic.
  const auto per_terminal = static_cast<std::size_t>(
      rate * static_cast<double>(cycles) * 2.0) + 16;
  for (auto& term : terminals_) term->reserve_source_queues(per_terminal);
  arena_.reserve_slots(arena_.live() + per_terminal * terminals_.size());
}

void Network::snapshot(NetworkSnapshot& out) const {
  out.bytes.clear();
  StateArchive ar = StateArchive::saving_to(out.bytes);
  // A saving archive only reads the state it visits.
  const_cast<Network*>(this)->state(ar);
}

void Network::restore(const NetworkSnapshot& snap) {
  StateArchive ar = StateArchive::loading_from(snap.bytes);
  state(ar);
  NOCALLOC_CHECK(ar.remaining() == 0);
}

void Network::state(StateArchive& ar) {
  // Structure fingerprint: restoring into a differently shaped network is a
  // setup error and aborts at the tag and count checks.
  ar.tag(0x4E0C5AFEu);
  ar.count(routers_.size());
  ar.count(terminals_.size());
  ar.count(flit_channels_.size());
  ar.count(credit_channels_.size());

  ar.u64(now_);
  ar.u64(next_packet_id_);
  ar.pod(perf_);
  active_state(ar, router_active_, routers_.size());
  active_state(ar, terminal_active_, terminals_.size());

  arena_.state(ar);
  routing_->state(ar);
  for (const auto& r : routers_) r->state(ar);
  for (const auto& term : terminals_) term->state(ar);
  for (const auto& ch : flit_channels_) ch->state(ar);
  for (const auto& ch : credit_channels_) ch->state(ar);
  ar.tag(0x4E0C5AFFu);
}

}  // namespace nocalloc::noc
