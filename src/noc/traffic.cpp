#include "noc/traffic.hpp"

#include "common/check.hpp"

namespace nocalloc::noc {

std::string to_string(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::kUniform:
      return "uniform";
    case TrafficPattern::kBitComplement:
      return "bitcomp";
    case TrafficPattern::kTranspose:
      return "transpose";
    case TrafficPattern::kShuffle:
      return "shuffle";
    case TrafficPattern::kTornado:
      return "tornado";
  }
  NOCALLOC_CHECK(false);
}

int traffic_destination(TrafficPattern pattern, int src,
                        std::size_t num_terminals, Rng& rng) {
  const auto n = static_cast<int>(num_terminals);
  NOCALLOC_CHECK(src >= 0 && src < n);
  switch (pattern) {
    case TrafficPattern::kUniform: {
      // Uniform over all terminals except the source.
      int dst = static_cast<int>(rng.next_below(num_terminals - 1));
      if (dst >= src) ++dst;
      return dst;
    }
    case TrafficPattern::kBitComplement:
      return (n - 1) - src;
    case TrafficPattern::kTranspose: {
      // Interpret the id as (hi, lo) halves of a square layout and swap.
      int side = 1;
      while (side * side < n) ++side;
      NOCALLOC_CHECK(side * side == n);
      return (src % side) * side + src / side;
    }
    case TrafficPattern::kShuffle: {
      int bits = 0;
      while ((1 << bits) < n) ++bits;
      NOCALLOC_CHECK((1 << bits) == n);
      return ((src << 1) | (src >> (bits - 1))) & (n - 1);
    }
    case TrafficPattern::kTornado:
      // Just under half way around: the classic worst case for minimal
      // routing on rings, loading one direction maximally.
      return (src + (n + 1) / 2 - 1) % n;
  }
  NOCALLOC_CHECK(false);
}

void RequestGenerator::fill(Cycle now, std::uint64_t& next_id, Packet& out) {
  out = Packet{};
  out.id = next_id++;
  out.type = rng_.next_bool(0.5) ? PacketType::kReadRequest
                                 : PacketType::kWriteRequest;
  out.src_terminal = terminal_;
  out.dst_terminal =
      traffic_destination(pattern_, terminal_, num_terminals_, rng_);
  out.length = packet_length(out.type);
  out.created = now;
}

Packet make_reply(const Packet& request, Cycle now, std::uint64_t id) {
  NOCALLOC_CHECK(is_request(request.type));
  Packet pkt;
  pkt.id = id;
  pkt.type = request.type == PacketType::kReadRequest
                 ? PacketType::kReadReply
                 : PacketType::kWriteReply;
  pkt.src_terminal = request.dst_terminal;
  pkt.dst_terminal = request.src_terminal;
  pkt.length = packet_length(pkt.type);
  pkt.created = now;
  return pkt;
}

}  // namespace nocalloc::noc
