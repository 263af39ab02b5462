// Ring buffers for the simulator's steady-state-allocation-free data path.
//
// The cycle loop's queues all have small, statically known (or quickly
// reached) occupancy bounds: an input VC never holds more than buffer_depth
// flits, a channel of latency L never holds more than L + 1 in-flight items,
// and a terminal source queue's high-water mark is set by the offered load.
// Backing them with contiguous rings instead of std::deque removes every
// per-push heap allocation from the per-cycle path.
//
//   - FixedRing: capacity fixed at reset_capacity() time; push_back past the
//     capacity is a (debug-checked) protocol violation. Used where the
//     protocol itself bounds occupancy (credit-limited input VC buffers).
//   - GrowRing: doubles its storage when full and never shrinks, so pushes
//     allocate only until the high-water mark is reached. Used where the
//     bound is load-dependent (channel pipes driven off-protocol in tests,
//     unbounded terminal source queues).
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "common/check.hpp"
#include "common/snapshot.hpp"

namespace nocalloc {

template <typename T>
class FixedRing {
 public:
  FixedRing() = default;
  explicit FixedRing(std::size_t capacity) { reset_capacity(capacity); }

  /// (Re)allocates storage for exactly `capacity` elements and clears the
  /// ring. The only allocation this container ever performs.
  void reset_capacity(std::size_t capacity) {
    NOCALLOC_CHECK(capacity > 0);
    cap_ = capacity;
    slots_ = std::make_unique<T[]>(capacity);
    head_ = 0;
    size_ = 0;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  T& front() {
    NOCALLOC_DCHECK(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    NOCALLOC_DCHECK(size_ > 0);
    return slots_[head_];
  }
  const T& back() const {
    NOCALLOC_DCHECK(size_ > 0);
    return slots_[index(size_ - 1)];
  }

  void push_back(T value) {
    NOCALLOC_DCHECK(size_ < cap_);
    slots_[index(size_)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    NOCALLOC_DCHECK(size_ > 0);
    head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
    --size_;
  }

  /// Discards all elements; capacity (and storage) is untouched.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Visits every element, oldest first, without consuming it.
  template <typename F>
  void for_each(F&& visit) const {
    for (std::size_t i = 0; i < size_; ++i) {
      visit(std::as_const(slots_[index(i)]));
    }
  }
  template <typename F>
  void for_each(F&& visit) {
    for (std::size_t i = 0; i < size_; ++i) visit(slots_[index(i)]);
  }

 private:
  std::size_t index(std::size_t offset) const {
    const std::size_t i = head_ + offset;
    return i >= cap_ ? i - cap_ : i;
  }

  std::unique_ptr<T[]> slots_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

template <typename T>
class GrowRing {
 public:
  explicit GrowRing(std::size_t initial_capacity = 8) {
    NOCALLOC_CHECK(initial_capacity > 0);
    cap_ = initial_capacity;
    slots_ = std::make_unique<T[]>(cap_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  T& front() {
    NOCALLOC_DCHECK(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    NOCALLOC_DCHECK(size_ > 0);
    return slots_[head_];
  }
  const T& back() const {
    NOCALLOC_DCHECK(size_ > 0);
    return slots_[index(size_ - 1)];
  }

  void push_back(T value) {
    if (size_ == cap_) grow();
    slots_[index(size_)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    NOCALLOC_DCHECK(size_ > 0);
    head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
    --size_;
  }

  /// Discards all elements; capacity (and storage) is untouched.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Grows (by the usual doubling) until at least `capacity` slots exist.
  /// Restoring a snapshot pre-grows rings to their saved high-water capacity
  /// so the post-restore steady state allocates nothing.
  void reserve(std::size_t capacity) {
    while (cap_ < capacity) grow();
  }

  template <typename F>
  void for_each(F&& visit) const {
    for (std::size_t i = 0; i < size_; ++i) {
      visit(std::as_const(slots_[index(i)]));
    }
  }
  template <typename F>
  void for_each(F&& visit) {
    for (std::size_t i = 0; i < size_; ++i) visit(slots_[index(i)]);
  }

 private:
  std::size_t index(std::size_t offset) const {
    const std::size_t i = head_ + offset;
    return i >= cap_ ? i - cap_ : i;
  }

  void grow() {
    const std::size_t new_cap = cap_ * 2;
    auto new_slots = std::make_unique<T[]>(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      new_slots[i] = std::move(slots_[index(i)]);
    }
    slots_ = std::move(new_slots);
    cap_ = new_cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> slots_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Saves or loads a ring's element count, then each element oldest first
/// through `item(element&)`. A loading archive refills the ring with that
/// many default elements -- aborting when they exceed its capacity -- and
/// loads each one in place. A GrowRing lists its grown capacity first,
/// restored through reserve() so the post-restore steady state allocates
/// nothing; a FixedRing's capacity is configuration, not state.
template <typename Ring, typename F>
void ring_state(StateArchive& ar, Ring& ring, F&& item) {
  if constexpr (requires { ring.reserve(std::size_t{0}); }) {
    std::uint64_t capacity = ring.capacity();
    ar.u64(capacity);
    if (ar.loading()) ring.reserve(capacity);
  }
  std::uint64_t n = ring.size();
  ar.u64(n);
  if (ar.loading()) {
    NOCALLOC_CHECK(n <= ring.capacity());
    ring.clear();
    for (std::uint64_t i = 0; i < n; ++i) ring.push_back({});
  }
  ring.for_each(item);
}

}  // namespace nocalloc
