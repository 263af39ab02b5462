// Trace-driven workload replay: capture a workload once, re-run it across
// allocator configurations, and compare like for like. Demonstrates the
// TrafficTrace / TraceSource API end to end.
//
// Usage: trace_replay [trace-file]
// Without an argument, a synthetic bursty trace is generated, round-tripped
// through a fresh temporary file in the text format, and replayed under two
// switch allocators.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "common/stats.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/trace.hpp"

using namespace nocalloc;
using namespace nocalloc::noc;

namespace {

// A bursty synthetic workload: every 200 cycles, a hotspot burst where many
// terminals target one region, interleaved with background uniform traffic.
TrafficTrace make_bursty_trace() {
  TrafficTrace trace;
  Rng rng(2026);
  for (Cycle burst = 0; burst < 10; ++burst) {
    const Cycle base = burst * 200;
    const int hotspot = static_cast<int>(rng.next_below(64));
    for (int i = 0; i < 48; ++i) {
      int src = static_cast<int>(rng.next_below(64));
      if (src == hotspot) src = (src + 1) % 64;
      trace.add({base + rng.next_below(40), src, hotspot,
                 rng.next_bool(0.5) ? PacketType::kReadRequest
                                    : PacketType::kWriteRequest});
    }
    for (int i = 0; i < 60; ++i) {
      const int src = static_cast<int>(rng.next_below(64));
      int dst = static_cast<int>(rng.next_below(63));
      if (dst >= src) ++dst;
      trace.add({base + rng.next_below(200), src, dst,
                 PacketType::kReadRequest});
    }
  }
  trace.sort();
  return trace;
}

/// Saves `trace` to a unique temporary file, loads it back and removes the
/// file, so concurrent runs never share a path and none is left behind.
TrafficTrace round_trip(const TrafficTrace& trace) {
  std::string path =
      (std::filesystem::temp_directory_path() / "nocalloc_trace_XXXXXX")
          .string();
  const int fd = mkstemp(path.data());
  if (fd < 0) {
    std::perror("trace_replay: mkstemp");
    std::exit(1);
  }
  close(fd);
  trace.save(path);
  TrafficTrace loaded = TrafficTrace::load(path);
  std::remove(path.c_str());
  return loaded;
}

double replay(const TrafficTrace& trace, AllocatorKind sw_alloc) {
  MeshTopology topo(8);
  NetworkConfig cfg;
  cfg.router.ports = 5;
  cfg.router.partition = VcPartition::mesh(2, 2);
  cfg.router.sw_alloc_kind = sw_alloc;
  cfg.source_factory = [&](int terminal) {
    return std::make_unique<TraceSource>(
        terminal, trace.for_terminal(terminal, topo.num_terminals()));
  };

  StatAccumulator latency;
  std::uint64_t reply_id = 1ull << 60;
  std::uint64_t transactions_done = 0;
  Network* net_ptr = nullptr;
  Network net(
      topo, cfg,
      [&](const CongestionOracle&) {
        return std::make_unique<DorMeshRouting>(topo);
      },
      [&](const Packet& pkt, Cycle now) {
        latency.add(static_cast<double>(now - pkt.created));
        if (is_request(pkt.type)) {
          net_ptr->terminal(pkt.dst_terminal)
              .enqueue_reply(make_reply(pkt, now, reply_id++));
        } else {
          ++transactions_done;
        }
      });
  net_ptr = &net;

  std::size_t guard = 0;
  while ((transactions_done < trace.size() || net.in_flight() > 0) &&
         guard++ < 100000) {
    net.step();
  }
  std::printf("  %-8s completed %llu/%zu transactions in %llu cycles, avg "
              "packet latency %.1f\n",
              to_string(sw_alloc).c_str(),
              static_cast<unsigned long long>(transactions_done), trace.size(),
              static_cast<unsigned long long>(net.now()), latency.mean());
  return latency.mean();
}

}  // namespace

int main(int argc, char** argv) {
  TrafficTrace trace;
  if (argc > 1) {
    trace = TrafficTrace::load(argv[1]);
    std::printf("loaded %zu trace records from %s\n", trace.size(), argv[1]);
  } else {
    trace = round_trip(make_bursty_trace());
    std::printf("generated bursty trace with %zu records "
                "(round-tripped through a temporary trace file)\n",
                trace.size());
  }

  std::printf("\nreplaying on the 8x8 mesh (2x1x2 VCs):\n");
  replay(trace, AllocatorKind::kSeparableInputFirst);
  replay(trace, AllocatorKind::kWavefront);
  std::printf("\nidentical workload, different switch allocators: latency "
              "differences are\nattributable to allocation quality alone.\n");
  return 0;
}
