// Synthetic traffic (Sec. 3.2): request/reply transactions over a spatial
// traffic pattern. Terminals inject request packets via a geometric random
// process; the destination terminal answers each request with the matching
// reply packet on the next cycle, with priority over new injections.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "noc/types.hpp"

namespace nocalloc::noc {

/// Spatial traffic patterns over terminal ids. Uniform random is the
/// pattern the paper reports; the others are provided for the robustness
/// sweeps it mentions ("largely invariant to traffic pattern selection").
enum class TrafficPattern {
  kUniform,        // destination uniform over all other terminals
  kBitComplement,  // dst = ~src
  kTranspose,      // dst = transpose of src's (x, y) coordinates
  kShuffle,        // dst = rotate-left(src)
  kTornado,        // dst = src + ceil(N/2) - 1 (adversarial for rings/tori)
};

std::string to_string(TrafficPattern pattern);

/// Computes the destination terminal for a new request.
int traffic_destination(TrafficPattern pattern, int src,
                        std::size_t num_terminals, Rng& rng);

/// Source of request packets for one terminal. Polled once per cycle by
/// the terminal; may produce at most one new packet per poll.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// Fills `out` with a request packet created at (or before) `now` and
  /// returns true, or returns false when no packet is generated this cycle.
  /// `next_id` supplies globally unique packet ids. Sources write into a
  /// caller-provided Packet (the terminal copies it into the simulation's
  /// PacketArena) so the per-cycle poll never heap-allocates.
  virtual bool maybe_generate(Cycle now, std::uint64_t& next_id,
                              Packet& out) = 0;

  /// Updates the offered request rate; returns false if this source has no
  /// rate knob (trace replay). The rate is deliberately NOT part of
  /// state(): a warm snapshot forked across load points carries the RNG
  /// stream and queue state while each fork sets its own rate.
  virtual bool set_request_rate(double rate) {
    static_cast<void>(rate);
    return false;
  }

  /// Saves or loads the source's mutable state (RNG stream, replay cursor)
  /// for warm snapshot/restore. The default is a no-op.
  virtual void state(StateArchive& ar) { static_cast<void>(ar); }
};

/// Per-terminal request generator: Bernoulli injection at the configured
/// transaction rate with alternating 50/50 read/write types.
class RequestGenerator final : public TrafficSource {
 public:
  RequestGenerator(int terminal, std::size_t num_terminals,
                   TrafficPattern pattern, double request_rate, Rng rng)
      : terminal_(terminal),
        num_terminals_(num_terminals),
        pattern_(pattern),
        request_rate_(request_rate),
        rng_(rng) {}

  bool maybe_generate(Cycle now, std::uint64_t& next_id,
                      Packet& out) override {
    if (!fires()) return false;
    fill(now, next_id, out);
    return true;
  }

  /// The per-cycle Bernoulli injection draw, split out of maybe_generate()
  /// so Terminal can poll it inline; fill() completes the packet when it
  /// fires. fires() followed by fill() on success is maybe_generate().
  bool fires() { return rng_.next_bool(request_rate_); }
  void fill(Cycle now, std::uint64_t& next_id, Packet& out);

  bool set_request_rate(double rate) override {
    request_rate_ = rate;
    return true;
  }
  void state(StateArchive& ar) override { rng_.state(ar); }

 private:
  int terminal_;
  std::size_t num_terminals_;
  TrafficPattern pattern_;
  double request_rate_;  // request packets per cycle
  Rng rng_;
};

/// Builds the reply packet for a delivered request (read -> 5-flit read
/// reply, write -> 1-flit write reply), created at `now`. Returned by value;
/// Terminal::enqueue_reply copies it into the simulation's PacketArena.
Packet make_reply(const Packet& request, Cycle now, std::uint64_t id);

}  // namespace nocalloc::noc
