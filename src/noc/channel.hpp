// Pipelined point-to-point channels.
//
// A channel is a fixed-latency delay line: items written at cycle t become
// readable at cycle t + latency. Mesh links have latency 1; the flattened
// butterfly's express links have latency 1-3 depending on physical span
// (Sec. 3.2). Credits travel on mirror channels of the same latency.
//
// The pipe is a ring buffer pre-sized to latency + 1 slots -- the maximum
// in-flight count under the one-send-per-cycle / exact-arrival-receive
// protocol -- so steady-state sends and receives never touch the heap. (The
// ring still grows if a test drives the channel off-protocol, e.g. queueing
// future sends before stepping the consumer.)
//
// For active-set scheduling, a channel can carry two wakes for its consumer,
// each a (word, bit) pair that send() ORs in: the consumer's bit in the
// Network's active-set words, telling the scheduler the consumer must be
// stepped until the channel drains, and the port's bit in the consumer's
// own receive-pending word.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/ring.hpp"
#include "common/snapshot.hpp"
#include "noc/types.hpp"

namespace nocalloc::noc {

template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t latency = 1)
      : latency_(latency), pipe_(latency + 1) {
    NOCALLOC_CHECK(latency >= 1);
  }

  std::size_t latency() const { return latency_; }

  /// Registers the consumer's bit in the Network's active-set words:
  /// send() ORs `1 << bit` into `word` so the consumer is stepped when the
  /// item arrives. Null detaches.
  void set_consumer_active(std::uint64_t* word, std::size_t bit) {
    active_word_ = word;
    active_bit_ = std::uint64_t{1} << bit;
  }

  /// Registers a per-port pending bit in the consumer's receive mask:
  /// send() ORs `1 << bit` into `word`, letting the consumer poll only
  /// ports with in-flight items instead of peeking every channel every
  /// cycle. The consumer owns clearing the bit (only once the channel is
  /// empty). Null detaches.
  void set_consumer_wake(std::uint64_t* word, std::size_t bit) {
    wake_word_ = word;
    wake_bit_ = std::uint64_t{1} << bit;
  }

  /// Writes an item at the current cycle. At most one item per cycle.
  void send(T item, Cycle now) {
    NOCALLOC_DCHECK(pipe_.empty() || pipe_.back().sent < now);
    pipe_.push_back(Slot{now, std::move(item)});
    if (active_word_ != nullptr) *active_word_ |= active_bit_;
    if (wake_word_ != nullptr) *wake_word_ |= wake_bit_;
  }

  /// Returns the item arriving at `now`, if any.
  std::optional<T> receive(Cycle now) {
    T* front = peek(now);
    if (front == nullptr) return std::nullopt;
    std::optional<T> out(std::move(*front));
    pop();
    return out;
  }

  /// Zero-copy variant of receive(): a pointer to the item arriving at
  /// `now` (valid until the next pipe operation), or nullptr. The caller
  /// must pop() after consuming it.
  T* peek(Cycle now) {
    if (pipe_.empty()) return nullptr;
    Slot& front = pipe_.front();
    if (front.sent + latency_ > now) return nullptr;
    NOCALLOC_DCHECK(front.sent + latency_ == now);  // consumers must not skip cycles
    return &front.item;
  }

  /// Consumes the item returned by peek().
  void pop() { pipe_.pop_front(); }

  bool empty() const { return pipe_.empty(); }
  std::size_t size() const { return pipe_.size(); }

  /// Visits every in-flight item, oldest first, without consuming it. Used
  /// by the invariant checker to audit channel contents.
  template <typename F>
  void for_each(F&& visit) const {
    pipe_.for_each([&](const Slot& slot) { visit(slot.item); });
  }

  /// Saves or loads the in-flight slots (absolute send cycles included; the
  /// network restores now_ alongside, so arrival arithmetic is unchanged)
  /// plus the ring's grown capacity (see ring_state). Slots are listed field
  /// by field -- the item codec is resolved per payload type (noc::Flit,
  /// noc::Credit), keeping the stream free of struct padding.
  void state(StateArchive& ar) {
    ring_state(ar, pipe_, [&](Slot& slot) {
      ar.u64(slot.sent);
      noc::state(ar, slot.item);
    });
  }

 private:
  struct Slot {
    Cycle sent = 0;
    T item;
  };

  std::size_t latency_;
  GrowRing<Slot> pipe_;
  std::uint64_t* active_word_ = nullptr;
  std::uint64_t active_bit_ = 0;
  std::uint64_t* wake_word_ = nullptr;
  std::uint64_t wake_bit_ = 0;
};

}  // namespace nocalloc::noc
