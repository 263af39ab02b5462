// Core data types of the cycle-accurate NoC simulator (Sec. 3.2).
//
// Traffic consists of request/reply transactions: read requests and write
// replies are single-flit packets; read replies and write requests carry a
// head flit plus four payload flits. Requests and replies travel in disjoint
// message classes to avoid protocol deadlock at the network boundary.
#pragma once

#include <cstdint>

#include "common/snapshot.hpp"

namespace nocalloc::noc {

using Cycle = std::uint64_t;

/// Index of a packet's metadata inside the simulation's PacketArena. Flits
/// carry handles, not pointers: they stay trivially copyable and the arena
/// keeps ownership explicit (released once, at tail-flit ejection).
using PacketHandle = std::uint32_t;
inline constexpr PacketHandle kInvalidPacket = 0xFFFFFFFFu;

enum class PacketType : std::uint8_t {
  kReadRequest,   // 1 flit
  kWriteRequest,  // 5 flits
  kReadReply,     // 5 flits
  kWriteReply,    // 1 flit
};

/// Flit count for each packet type (Sec. 3.2).
constexpr std::size_t packet_length(PacketType type) {
  switch (type) {
    case PacketType::kReadRequest:
    case PacketType::kWriteReply:
      return 1;
    case PacketType::kWriteRequest:
    case PacketType::kReadReply:
      return 5;
  }
  return 0;
}

/// Message class: requests and replies use disjoint VC sets (M = 2).
constexpr std::size_t message_class_of(PacketType type) {
  switch (type) {
    case PacketType::kReadRequest:
    case PacketType::kWriteRequest:
      return 0;
    case PacketType::kReadReply:
    case PacketType::kWriteReply:
      return 1;
  }
  return 0;
}

/// True for the packet types that trigger a reply at the destination.
constexpr bool is_request(PacketType type) {
  return type == PacketType::kReadRequest || type == PacketType::kWriteRequest;
}

/// Per-packet metadata shared by all of its flits.
struct Packet {
  std::uint64_t id = 0;
  PacketType type = PacketType::kReadRequest;
  int src_terminal = -1;
  int dst_terminal = -1;
  std::size_t length = 1;        // flits
  Cycle created = 0;             // cycle the packet entered its source queue
  Cycle injected = 0;            // cycle the head flit entered the network
  /// UGAL state: intermediate router for non-minimal packets, -1 if minimal.
  int intermediate_router = -1;
  /// Statistics bookkeeping: true if created during the measurement phase.
  bool measured = false;
};

/// Routing decision carried by a head flit for its *current* router; with
/// lookahead routing (Sec. 3.2) it is produced one hop upstream so that the
/// routing logic never occupies a pipeline stage.
struct RouteInfo {
  int out_port = -1;
  std::size_t resource_class = 0;  // resource class of the next-hop VCs
};

struct Flit {
  PacketHandle packet = kInvalidPacket;
  bool head = false;
  bool tail = false;
  std::size_t index = 0;  // position within the packet
  int vc = -1;            // VC the flit travels on (downstream input VC)
  RouteInfo route;        // valid on head flits only
};

/// Credit returned upstream when a flit leaves an input buffer.
struct Credit {
  int vc = -1;  // input VC (== upstream output VC) being credited
};

// Field-wise snapshot codecs for the structs whose in-memory layout contains
// padding bytes: the canonical stream (common/snapshot.hpp) forbids writing
// indeterminate padding, so these list the fields one by one, once for both
// directions.

inline void state(StateArchive& ar, RouteInfo& route) {
  ar.pod(route.out_port);
  ar.u64(route.resource_class);
}

inline void state(StateArchive& ar, Flit& flit) {
  ar.pod(flit.packet);
  ar.pod(flit.head);
  ar.pod(flit.tail);
  ar.u64(flit.index);
  ar.pod(flit.vc);
  state(ar, flit.route);
}

inline void state(StateArchive& ar, Credit& credit) { ar.pod(credit.vc); }

inline void state(StateArchive& ar, Packet& pkt) {
  ar.u64(pkt.id);
  ar.pod(pkt.type);
  ar.pod(pkt.src_terminal);
  ar.pod(pkt.dst_terminal);
  ar.u64(pkt.length);
  ar.u64(pkt.created);
  ar.u64(pkt.injected);
  ar.pod(pkt.intermediate_router);
  ar.pod(pkt.measured);
}

}  // namespace nocalloc::noc
