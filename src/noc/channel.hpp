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
// For active-set scheduling a channel carries up to three marks for its
// consumer, each set by send(): the consumer's bit in the Network's
// router active-set words (read live by the allocate pass), the port's bit
// in the consumer's own receive-pending word, and the consumer's bit in a
// DueSet slot for the arrival cycle, which is all the receive passes visit.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "common/ring.hpp"
#include "common/snapshot.hpp"
#include "noc/types.hpp"

namespace nocalloc::noc {

/// Consumers with a channel arrival due, cycle by cycle: a ring of slots,
/// each a bitset over the consumers, indexed by arrival cycle. The ring has
/// a power-of-two number of slots greater than the longest channel latency,
/// so every in-flight item's arrival has its own slot; a slot is cleared
/// once its cycle's receive pass has run. The OR of all slots is therefore
/// exactly the set of consumers with a non-empty incoming channel.
class DueSet {
 public:
  DueSet(std::size_t consumers, std::size_t max_latency)
      : stride_(bits::word_count(consumers)),
        mask_(std::bit_ceil(max_latency + 1) - 1),
        words_((mask_ + 1) * stride_, 0) {}

  std::size_t slots() const { return mask_ + 1; }
  std::size_t words_per_slot() const { return stride_; }

  /// The consumers with an arrival at cycle `c`.
  const bits::Word* slot(Cycle c) const { return words_.data() + offset(c); }

  void mark(Cycle arrival, std::size_t word, bits::Word bit) {
    words_[offset(arrival) + word] |= bit;
  }

  /// Calls fn(consumer) for every consumer due at cycle `c`, ascending, and
  /// clears the slot for reuse.
  template <typename Fn>
  void drain(Cycle c, Fn&& fn) {
    bits::Word* words = words_.data() + offset(c);
    bits::for_each_set(words, stride_, fn);
    std::fill(words, words + stride_, bits::Word{0});
  }

  /// Word `w` of the union over all slots: consumers with any item in
  /// flight towards them.
  bits::Word inflight(std::size_t w) const {
    bits::Word any = 0;
    for (std::size_t s = w; s < words_.size(); s += stride_) any |= words_[s];
    return any;
  }

  void clear() { std::fill(words_.begin(), words_.end(), bits::Word{0}); }

 private:
  std::size_t offset(Cycle c) const {
    return static_cast<std::size_t>(c & mask_) * stride_;
  }

  std::size_t stride_;  // words per slot
  Cycle mask_;          // slots - 1
  std::vector<bits::Word> words_;  // [slot * stride_ + word]
};

template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t latency = 1)
      : latency_(latency), pipe_(latency + 1) {
    NOCALLOC_CHECK(latency >= 1);
  }

  std::size_t latency() const { return latency_; }

  /// Registers the consumer's bit in the Network's router active-set
  /// words: send() ORs `1 << bit` into `word`, so a router woken by a
  /// lower-index router's send joins the same allocate pass. Null detaches.
  void set_consumer_active(std::uint64_t* word, std::size_t bit) {
    active_word_ = word;
    active_bit_ = std::uint64_t{1} << bit;
  }

  /// Registers a per-port pending bit in the consumer's receive mask:
  /// send() ORs `1 << bit` into `word`, letting the consumer poll only
  /// ports with in-flight items instead of peeking every channel. The
  /// consumer clears the bit once the channel is empty, so the bit is set
  /// iff the channel holds an item. Null detaches.
  void set_consumer_wake(std::uint64_t* word, std::size_t bit) {
    wake_word_ = word;
    wake_bit_ = std::uint64_t{1} << bit;
  }

  /// Registers consumer `consumer` of `due`: send() marks it in the slot of
  /// the item's arrival cycle. Null detaches.
  void set_consumer_due(DueSet* due, std::size_t consumer) {
    // An arrival must not wrap onto a slot still holding earlier arrivals.
    NOCALLOC_CHECK(due == nullptr || latency_ < due->slots());
    due_ = due;
    due_word_ = bits::word_of(consumer);
    due_bit_ = bits::bit(consumer);
  }

  /// Writes an item at the current cycle. At most one item per cycle.
  void send(T item, Cycle now) {
    NOCALLOC_DCHECK(pipe_.empty() || pipe_.back().sent < now);
    pipe_.push_back(Slot{now, std::move(item)});
    if (active_word_ != nullptr) *active_word_ |= active_bit_;
    if (wake_word_ != nullptr) *wake_word_ |= wake_bit_;
    if (due_ != nullptr) due_->mark(now + latency_, due_word_, due_bit_);
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

  /// Visits the arrival cycle of every in-flight item, oldest first. Used
  /// by the invariant checker to audit the due sets.
  template <typename F>
  void for_each_arrival(F&& visit) const {
    pipe_.for_each([&](const Slot& slot) { visit(slot.sent + latency_); });
  }

  /// Saves or loads the in-flight slots (absolute send cycles included; the
  /// network restores now_ alongside, so arrival arithmetic is unchanged)
  /// plus the ring's grown capacity (see ring_state). Slots are listed field
  /// by field -- the item codec is resolved per payload type (noc::Flit,
  /// noc::Credit), keeping the stream free of struct padding. A load
  /// re-marks the consumer's receive-pending bit and due slots from the
  /// restored items (the owner clears both before loading its channels);
  /// the active-set bit is the Network's own state and is left alone.
  void state(StateArchive& ar) {
    ring_state(ar, pipe_, [&](Slot& slot) {
      ar.u64(slot.sent);
      noc::state(ar, slot.item);
    });
    if (ar.loading() && !pipe_.empty()) {
      if (wake_word_ != nullptr) *wake_word_ |= wake_bit_;
      if (due_ != nullptr) {
        pipe_.for_each([&](const Slot& slot) {
          due_->mark(slot.sent + latency_, due_word_, due_bit_);
        });
      }
    }
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
  DueSet* due_ = nullptr;
  std::size_t due_word_ = 0;
  bits::Word due_bit_ = 0;
};

}  // namespace nocalloc::noc
