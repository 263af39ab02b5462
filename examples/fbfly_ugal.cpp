// Flattened butterfly with UGAL routing, built on the lower-level Network
// API (instead of run_simulation) to expose routing internals: misroute
// fraction, per-router speculation counters, and the drain check that
// demonstrates deadlock freedom of the two-phase VC scheme.
//
// Usage: fbfly_ugal [injection_rate] [ugal_threshold]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "common/parse.hpp"
#include "common/stats.hpp"
#include "noc/network.hpp"

using namespace nocalloc;
using namespace nocalloc::noc;

namespace {

/// `parsed`, or exits naming the argument and its text.
template <typename T>
T or_exit(const std::optional<T>& parsed, const char* what, const char* text) {
  if (parsed) return *parsed;
  std::fprintf(stderr, "bad %s '%s'\n", what, text);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const double rate =
      argc > 1 ? or_exit(parse_rate(argv[1]), "injection_rate", argv[1]) : 0.4;
  const std::size_t threshold =
      argc > 2 ? or_exit(parse_size(argv[2]), "ugal_threshold", argv[2]) : 3;

  FlattenedButterflyTopology topo(4, 4);

  NetworkConfig cfg;
  cfg.router.ports = topo.ports();
  cfg.router.partition = VcPartition::fbfly(2, 2);
  cfg.router.sw_alloc_kind = AllocatorKind::kWavefront;
  cfg.request_rate = rate / 6.0;  // six flits per transaction
  cfg.seed = 42;

  StatAccumulator latency;
  std::uint64_t reply_id = 1ull << 62;
  Network* net_ptr = nullptr;
  UgalFbflyRouting* ugal = nullptr;

  Network net(
      topo, cfg,
      [&](const CongestionOracle& oracle) {
        auto routing = std::make_unique<UgalFbflyRouting>(topo, oracle, Rng(7));
        routing->set_threshold(threshold);
        ugal = routing.get();
        return routing;
      },
      [&](const Packet& pkt, Cycle now) {
        latency.add(static_cast<double>(now - pkt.created));
        if (is_request(pkt.type)) {
          net_ptr->terminal(pkt.dst_terminal)
              .enqueue_reply(make_reply(pkt, now, reply_id++));
        }
      });
  net_ptr = &net;

  std::printf("4x4 flattened butterfly (c=4), UGAL threshold %zu, offered "
              "%.2f flits/terminal/cycle\n",
              threshold, rate);

  for (int i = 0; i < 8000; ++i) net.step();

  std::printf("after 8000 cycles: %zu packets delivered, avg latency %.1f "
              "cycles\n",
              latency.count(), latency.mean());
  std::printf("UGAL decisions: %llu, non-minimal %.1f%%\n",
              static_cast<unsigned long long>(ugal->decisions()),
              100.0 * static_cast<double>(ugal->nonminimal_decisions()) /
                  static_cast<double>(ugal->decisions()));

  std::uint64_t spec_used = 0, misspec = 0;
  for (std::size_t r = 0; r < topo.num_routers(); ++r) {
    spec_used += net.router(static_cast<int>(r)).stats().spec_grants_used;
    misspec += net.router(static_cast<int>(r)).stats().misspeculations;
  }
  std::printf("speculative grants used: %llu, misspeculations: %llu "
              "(%.1f%% wasted)\n",
              static_cast<unsigned long long>(spec_used),
              static_cast<unsigned long long>(misspec),
              100.0 * static_cast<double>(misspec) /
                  static_cast<double>(spec_used + misspec));

  // Deadlock-freedom demonstration: stop injecting and drain completely.
  net.set_generation_enabled(false);
  std::size_t cycles = 0;
  while (net.in_flight() > 0 && cycles < 20000) {
    net.step();
    ++cycles;
  }
  std::printf("drained to empty in %zu cycles (in_flight = %zu)\n", cycles,
              net.in_flight());
  return net.in_flight() == 0 ? 0 : 1;
}
