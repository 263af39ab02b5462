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

/// The longest channel latency a network over `topo` builds: router-driven
/// channels carry the folded switch-traversal stage (link latency + 1), and
/// ejection flits and credits back to a terminal take 2.
std::size_t max_channel_latency(const Topology& topo) {
  std::size_t latency = 2;
  for (const LinkSpec& link : topo.links()) {
    latency = std::max(latency, link.latency + 1);
  }
  return latency;
}

}  // namespace

Network::Network(const Topology& topo, const NetworkConfig& cfg,
                 RoutingFactory routing_factory,
                 Terminal::EjectCallback on_eject)
    : topo_(topo),
      // Every consumer starts active, so the first step visits all of them.
      router_active_(all_active(topo.num_routers())),
      terminal_active_(all_active(topo.num_terminals())),
      router_occupied_(bits::word_count(topo.num_routers()), 0),
      terminal_injecting_(bits::word_count(topo.num_terminals()), 0),
      router_due_(topo.num_routers(), max_channel_latency(topo)),
      terminal_due_(topo.num_terminals(), max_channel_latency(topo)) {
  NOCALLOC_CHECK(cfg.router.ports == topo.ports());
  routing_ = routing_factory(*this);

  const auto n_routers = static_cast<int>(topo.num_routers());
  for (int r = 0; r < n_routers; ++r) {
    routers_.push_back(
        std::make_unique<Router>(r, cfg.router, *routing_, arena_));
    const auto rs = static_cast<std::size_t>(r);
    routers_.back()->set_occupied_flag(&router_occupied_[bits::word_of(rs)],
                                       rs % bits::kWordBits);
  }

  // Channels towards router `consumer` mark its bit in the live active set
  // and in the router due set; channels towards a terminal mark only the
  // terminal due set.
  auto to_router = [&](auto& channel, std::size_t consumer) {
    channel.set_consumer_active(&router_active_[bits::word_of(consumer)],
                                consumer % bits::kWordBits);
    channel.set_consumer_due(&router_due_, consumer);
  };
  auto new_flit_channel = [&](std::size_t latency) {
    flit_channels_.push_back(std::make_unique<Channel<Flit>>(latency));
    return flit_channels_.back().get();
  };
  auto new_credit_channel = [&](std::size_t latency) {
    credit_channels_.push_back(std::make_unique<Channel<Credit>>(latency));
    return credit_channels_.back().get();
  };

  // Inter-router links (flits one way, credits the other). Router-driven
  // channels carry the folded switch-traversal stage, so their latency is
  // the physical link latency plus one (a flit granted at cycle t arrives
  // at t + 1 + link.latency, exactly as with an explicit ST stage).
  for (const LinkSpec& link : topo.links()) {
    Channel<Flit>* flits = new_flit_channel(link.latency + 1);
    to_router(*flits, static_cast<std::size_t>(link.dst_router));
    Channel<Credit>* credits = new_credit_channel(link.latency + 1);
    to_router(*credits, static_cast<std::size_t>(link.src_router));
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
    const auto rs = static_cast<std::size_t>(r);
    const auto ts = static_cast<std::size_t>(t);
    term.set_id_counter(&next_packet_id_);
    term.set_injecting_flag(&terminal_injecting_[bits::word_of(ts)],
                            ts % bits::kWordBits);

    // Terminal-driven channels keep latency 1; router-driven ones (ejected
    // flits, credits back to the terminal) get the +1 ST fold.
    Channel<Flit>* inj_flits = new_flit_channel(1);
    to_router(*inj_flits, rs);
    Channel<Credit>* inj_credits = new_credit_channel(2);
    inj_credits->set_consumer_due(&terminal_due_, ts);
    Channel<Flit>* ej_flits = new_flit_channel(2);
    ej_flits->set_consumer_due(&terminal_due_, ts);
    Channel<Credit>* ej_credits = new_credit_channel(1);
    to_router(*ej_credits, rs);
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
  // Allocate pass, in ascending router order, over the active set. Only
  // routers in the occupied set have anything to allocate; the active
  // routers in between are counted as visited without a call, exactly as if
  // their allocate() had returned at once. The word is re-read after each
  // call: a send can wake a higher-index router mid-pass, and that router
  // counts as visited in the same cycle (the sent item only becomes
  // receivable one cycle later).
  std::size_t visited = 0;
  for (std::size_t w = 0; w < router_active_.size(); ++w) {
    bits::Word above = ~bits::Word{0};  // positions the pass has not passed
    while (true) {
      const bits::Word live = router_active_[w] & above;
      const bits::Word calls = live & router_occupied_[w];
      if (calls == 0) {
        visited += static_cast<std::size_t>(std::popcount(live));
        break;
      }
      const auto b = static_cast<std::size_t>(std::countr_zero(calls));
      const bits::Word upto = (bits::Word{2} << b) - 1;  // bits <= b
      visited += static_cast<std::size_t>(std::popcount(live & upto));
      routers_[w * bits::kWordBits + b]->allocate(t);
      above = ~upto;
    }
  }
  perf_.router_steps_skipped += nr - visited;

  // Every terminal polls its source every cycle; injection follows for the
  // terminals with a packet. Generation takes packet ids and arena slots in
  // terminal order, and injection takes no ids or slots, so generating
  // everywhere first is identical to generating inside each injection.
  for (auto& term : terminals_) term->generate(t);
  bits::for_each_set(
      terminal_injecting_.data(), terminal_injecting_.size(),
      [&](std::size_t i) { terminals_[i]->inject(t); });

  // Receive passes: only consumers with an arrival this cycle. A terminal's
  // ejection credit sent below arrives at t + 1, in another slot.
  router_due_.drain(t, [&](std::size_t r) { routers_[r]->receive(t); });
  terminal_due_.drain(t, [&](std::size_t i) { terminals_[i]->receive(t); });

  // The consumers a dense run would step next cycle: routers with a busy
  // VC or an item in flight towards them, terminals with an item in flight.
  for (std::size_t w = 0; w < router_active_.size(); ++w) {
    router_active_[w] = router_occupied_[w] | router_due_.inflight(w);
  }
  for (std::size_t w = 0; w < terminal_active_.size(); ++w) {
    terminal_active_[w] = terminal_due_.inflight(w);
  }

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

std::size_t Network::credits_in_flight() const {
  std::size_t n = 0;
  for (const auto& ch : credit_channels_) n += ch->size();
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
  // The occupied and injecting bits are rebuilt by the router and terminal
  // loads, the due slots (and receive-pending words) by the channel loads.
  if (ar.loading()) {
    router_due_.clear();
    terminal_due_.clear();
  }

  arena_.state(ar);
  routing_->state(ar);
  for (const auto& r : routers_) r->state(ar);
  for (const auto& term : terminals_) term->state(ar);
  for (const auto& ch : flit_channels_) ch->state(ar);
  for (const auto& ch : credit_channels_) ch->state(ar);
  ar.tag(0x4E0C5AFFu);
}

}  // namespace nocalloc::noc
