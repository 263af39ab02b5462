#include "noc/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "noc/network.hpp"
#include "noc/routing.hpp"

namespace nocalloc::noc {
namespace {

TEST(TrafficTrace, ParseAndSerializeRoundTrip) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "10 0 5 R\n"
      "3 2 7 W\n"
      "  # indented comment\n"
      "10 1 6 R\n");
  TrafficTrace trace = TrafficTrace::parse(in);
  ASSERT_EQ(trace.size(), 3u);
  // parse() sorts by (cycle, src).
  EXPECT_EQ(trace.records()[0], (TraceRecord{3, 2, 7, PacketType::kWriteRequest}));
  EXPECT_EQ(trace.records()[1], (TraceRecord{10, 0, 5, PacketType::kReadRequest}));
  EXPECT_EQ(trace.records()[2], (TraceRecord{10, 1, 6, PacketType::kReadRequest}));

  std::istringstream again(trace.to_string());
  EXPECT_EQ(TrafficTrace::parse(again).records(), trace.records());
}

TEST(TrafficTrace, RejectsMalformedLines) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    TrafficTrace::parse(in);
  };
  EXPECT_DEATH(parse("5 0 1 X\n"), "trace line 1: type is not R or W");
  EXPECT_DEATH(parse("5 0\n"), "trace line 1: expected <cycle>");
  // A negative cycle must not wrap to 2^64 - 5, which is never reached.
  EXPECT_DEATH(parse("# header\n-5 1 2 R\n"),
               "trace line 2: cycle is not an integer >= 0: '-5 1 2 R'");
  EXPECT_DEATH(parse("3 1 2 R junk\n"), "trace line 1: expected <cycle>");
  EXPECT_DEATH(parse("3x 1 2 R\n"), "trace line 1: cycle is not");
  EXPECT_DEATH(parse("3 -1 2 R\n"), "trace line 1: src is not");
  EXPECT_DEATH(parse("3 1 2.5 W\n"), "trace line 1: dst is not");
  EXPECT_DEATH(parse("3 1 99999999999 W\n"), "trace line 1: dst is not");
  EXPECT_DEATH(parse("3 4 4 W\n"), "trace line 1: src and dst are equal");
}

TEST(TrafficTrace, RejectsTerminalsOutsideTheNetwork) {
  TrafficTrace trace;
  trace.add({3, 1, 99999, PacketType::kReadRequest});
  EXPECT_DEATH(trace.for_terminal(0, 16),
               "trace record '3 1 99999' names a terminal outside the "
               "network \\(16 terminals\\)");
  TrafficTrace foreign_src;
  foreign_src.add({3, 16, 1, PacketType::kReadRequest});
  EXPECT_DEATH(foreign_src.for_terminal(1, 16),
               "trace record '3 16 1' names a terminal outside");
  EXPECT_EQ(foreign_src.for_terminal(1, 17).size(), 0u);
}

TEST(TrafficTrace, SaveAndLoadRoundTrip) {
  TrafficTrace trace;
  trace.add({7, 2, 5, PacketType::kWriteRequest});
  trace.add({9, 0, 1, PacketType::kReadRequest});
  const std::string path = ::testing::TempDir() + "roundtrip.trace";
  trace.save(path);
  EXPECT_EQ(TrafficTrace::load(path).records(), trace.records());
}

// A file that cannot be opened or written aborts naming the path and the
// operation, not the failed expression.
TEST(TrafficTrace, FileErrorsNameThePath) {
  const std::string missing = ::testing::TempDir() + "no_such_dir/x.trace";
  EXPECT_DEATH(TrafficTrace::load(missing),
               "cannot open trace file '" + missing + "' for reading");
  EXPECT_DEATH(TrafficTrace().save(missing),
               "cannot write trace file '" + missing + "'");
}

TEST(TrafficTrace, RejectsSelfTraffic) {
  TrafficTrace trace;
  EXPECT_DEATH(trace.add({0, 3, 3, PacketType::kReadRequest}), "check failed");
}

TEST(TrafficTrace, RejectsReplyRecords) {
  TrafficTrace trace;
  EXPECT_DEATH(trace.add({0, 0, 1, PacketType::kReadReply}), "check failed");
}

TEST(TrafficTrace, ForTerminalFiltersAndPreservesOrder) {
  TrafficTrace trace;
  trace.add({5, 1, 2, PacketType::kReadRequest});
  trace.add({1, 0, 3, PacketType::kWriteRequest});
  trace.add({9, 1, 4, PacketType::kReadRequest});
  trace.sort();
  const auto slice = trace.for_terminal(1, 5);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice[0].cycle, 5u);
  EXPECT_EQ(slice[1].cycle, 9u);
}

TEST(TraceSource, EmitsAtRecordedCycles) {
  TraceSource source(0, {{4, 0, 1, PacketType::kReadRequest},
                         {8, 0, 2, PacketType::kWriteRequest}});
  std::uint64_t id = 1;
  Packet pkt;
  for (Cycle t = 0; t < 4; ++t) {
    EXPECT_FALSE(source.maybe_generate(t, id, pkt)) << t;
  }
  ASSERT_TRUE(source.maybe_generate(4, id, pkt));
  EXPECT_EQ(pkt.dst_terminal, 1);
  EXPECT_EQ(pkt.created, 4u);
  EXPECT_FALSE(source.maybe_generate(5, id, pkt));
  ASSERT_TRUE(source.maybe_generate(8, id, pkt));
  EXPECT_EQ(pkt.type, PacketType::kWriteRequest);
  EXPECT_EQ(source.remaining(), 0u);
}

TEST(TraceSource, SameCycleRecordsDrainOnConsecutivePolls) {
  TraceSource source(0, {{4, 0, 1, PacketType::kReadRequest},
                         {4, 0, 2, PacketType::kReadRequest}});
  std::uint64_t id = 1;
  Packet a, b;
  ASSERT_TRUE(source.maybe_generate(4, id, a));
  ASSERT_TRUE(source.maybe_generate(5, id, b));
  // The delayed one keeps its recorded creation time (queueing counts).
  EXPECT_EQ(b.created, 4u);
}

TEST(TraceSource, RejectsForeignRecords) {
  EXPECT_DEATH(TraceSource(0, {{1, 2, 3, PacketType::kReadRequest}}),
               "check failed");
}

TEST(TraceReplay, DeliversEveryTracedTransaction) {
  // Replay a hand-built trace on a 4x4 mesh and require every request and
  // its reply to arrive, deterministically.
  MeshTopology topo(4);
  TrafficTrace trace;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const int src = static_cast<int>(rng.next_below(16));
    int dst = static_cast<int>(rng.next_below(15));
    if (dst >= src) ++dst;
    trace.add({rng.next_below(500), src, dst,
               rng.next_bool(0.5) ? PacketType::kReadRequest
                                  : PacketType::kWriteRequest});
  }
  trace.sort();

  NetworkConfig cfg;
  cfg.router.ports = 5;
  cfg.router.partition = VcPartition::mesh(2, 1);
  cfg.source_factory = [&](int terminal) {
    return std::make_unique<TraceSource>(
        terminal, trace.for_terminal(terminal, topo.num_terminals()));
  };

  std::uint64_t requests_delivered = 0, replies_delivered = 0;
  std::uint64_t reply_id = 1ull << 60;
  Network* net_ptr = nullptr;
  Network net(
      topo, cfg,
      [&](const CongestionOracle&) {
        return std::make_unique<DorMeshRouting>(topo);
      },
      [&](const Packet& pkt, Cycle now) {
        if (is_request(pkt.type)) {
          ++requests_delivered;
          net_ptr->terminal(pkt.dst_terminal)
              .enqueue_reply(make_reply(pkt, now, reply_id++));
        } else {
          ++replies_delivered;
        }
      });
  net_ptr = &net;

  std::size_t guard = 0;
  while ((requests_delivered < 200 || replies_delivered < 200) &&
         guard++ < 5000) {
    net.step();
  }
  EXPECT_EQ(requests_delivered, 200u);
  EXPECT_EQ(replies_delivered, 200u);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(TraceReplay, DeterministicAcrossRuns) {
  MeshTopology topo(4);
  TrafficTrace trace;
  trace.add({0, 0, 15, PacketType::kReadRequest});
  trace.add({2, 5, 10, PacketType::kWriteRequest});
  trace.add({4, 12, 3, PacketType::kReadRequest});

  auto run_once = [&]() {
    NetworkConfig cfg;
    cfg.router.ports = 5;
    cfg.router.partition = VcPartition::mesh(2, 1);
    cfg.source_factory = [&](int terminal) {
      return std::make_unique<TraceSource>(
          terminal, trace.for_terminal(terminal, topo.num_terminals()));
    };
    std::vector<Cycle> ejects;
    std::uint64_t reply_id = 1ull << 60;
    Network* net_ptr = nullptr;
    Network net(
        topo, cfg,
        [&](const CongestionOracle&) {
          return std::make_unique<DorMeshRouting>(topo);
        },
        [&](const Packet& pkt, Cycle now) {
          ejects.push_back(now);
          if (is_request(pkt.type)) {
            net_ptr->terminal(pkt.dst_terminal)
                .enqueue_reply(make_reply(pkt, now, reply_id++));
          }
        });
    net_ptr = &net;
    for (int i = 0; i < 300; ++i) net.step();
    return ejects;
  };

  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace nocalloc::noc
