// Per-simulation packet storage.
//
// Every flit of a packet used to carry a shared_ptr<Packet>, so copying a
// flit through a channel or crossbar bumped an atomic refcount and the last
// eject paid a heap free. The arena replaces that with a 32-bit handle into
// per-simulation slab storage: flits are trivially copyable, packet metadata
// is allocated from a free list (no heap traffic once the slabs are warm),
// and ownership is explicit -- the packet is released exactly once, when its
// tail flit leaves the network at the destination terminal.
//
// Slabs are chunked so existing Packet addresses stay stable while the arena
// grows (references obtained from get() survive concurrent allocate()s).
// Explicit ownership also turns dropped tail flits -- which shared_ptr
// silently papered over as mere leaks -- into checkable bugs: in debug
// builds, release() verifies the handle is live, and the simulation driver
// asserts the arena is empty once the network has drained.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/snapshot.hpp"
#include "noc/types.hpp"

namespace nocalloc::noc {

// PacketHandle / kInvalidPacket live in noc/types.hpp next to Flit.

class PacketArena {
 public:
  /// Allocates a slot and value-initializes it. O(1); heap-allocates only
  /// when the free list is exhausted (a new slab every kChunkSize packets).
  PacketHandle allocate() {
    if (free_.empty()) grow();
    const PacketHandle h = free_.back();
    free_.pop_back();
#if NOCALLOC_DCHECK_ENABLED
    live_flag_[h] = 1;
#endif
    ++live_;
    if (live_ > high_water_) high_water_ = live_;
    get(h) = Packet{};
    return h;
  }

  /// Returns a slot to the free list. Exactly one release per allocate;
  /// double releases are caught in debug builds.
  void release(PacketHandle h) {
    NOCALLOC_DCHECK(h < capacity());
#if NOCALLOC_DCHECK_ENABLED
    NOCALLOC_DCHECK(live_flag_[h] == 1);
    live_flag_[h] = 0;
#endif
    NOCALLOC_DCHECK(live_ > 0);
    --live_;
    free_.push_back(h);
  }

  Packet& get(PacketHandle h) {
    NOCALLOC_DCHECK(h < capacity());
    return chunks_[h / kChunkSize][h % kChunkSize];
  }
  const Packet& get(PacketHandle h) const {
    NOCALLOC_DCHECK(h < capacity());
    return chunks_[h / kChunkSize][h % kChunkSize];
  }

  /// Pre-grows the slab storage until at least `n` slots exist, so a
  /// workload bounded by `n` simultaneous live packets allocates nothing
  /// afterwards. Saturation benches use this to keep even the
  /// unbounded-backlog regime heap-quiet over a fixed window.
  void reserve_slots(std::size_t n) {
    while (capacity() < n) grow();
  }

  /// Packets currently allocated. Zero once the network has drained -- any
  /// residue is a dropped tail flit.
  std::size_t live() const { return live_; }

  /// Peak simultaneous live packets over the arena's lifetime.
  std::size_t high_water() const { return high_water_; }

  std::size_t capacity() const { return chunks_.size() * kChunkSize; }

  /// Saves or loads every slab slot by slot (Packet has padding, so the
  /// slabs cannot be block-copied into the canonical stream) plus the free
  /// list, so handle values embedded in snapshotted flits stay valid after
  /// restore.
  ///
  /// A load may land in an arena that is already larger than the snapshot
  /// (a reused shard). Capacity only ever grows to cover the snapshot; slots
  /// beyond the snapshot's capacity are placed at the FRONT of the free list
  /// in descending order, so pop_back yields them ascending -- exactly the
  /// order grow() would have produced them in an uninterrupted run once the
  /// saved free list drains.
  void state(StateArchive& ar) {
    std::uint64_t snap_cap = capacity();
    ar.u64(snap_cap);
    if (ar.loading()) {
      NOCALLOC_CHECK(snap_cap % kChunkSize == 0);
      while (capacity() < snap_cap) grow();
    }
    for (std::size_t c = 0; c < snap_cap / kChunkSize; ++c) {
      for (std::size_t i = 0; i < kChunkSize; ++i) {
        noc::state(ar, chunks_[c][i]);
      }
    }
    std::uint64_t n_free = free_.size();
    ar.u64(n_free);
    std::size_t extras = 0;
    if (ar.loading()) {
      NOCALLOC_CHECK(n_free <= snap_cap);
      free_.clear();
      free_.reserve(capacity());
      for (std::size_t h = capacity(); h-- > snap_cap;) {
        free_.push_back(static_cast<PacketHandle>(h));
      }
      extras = free_.size();
      free_.resize(extras + n_free);
    }
    ar.pod_array(free_.data() + extras, n_free);
    ar.u64(live_);
    ar.u64(high_water_);
    if (ar.saving()) return;
    NOCALLOC_CHECK(live_ + n_free == snap_cap);
#if NOCALLOC_DCHECK_ENABLED
    live_flag_.assign(capacity(), 1);
    for (const PacketHandle h : free_) {
      NOCALLOC_CHECK(h < capacity());
      live_flag_[h] = 0;
    }
#endif
  }

 private:
  static constexpr std::size_t kChunkSize = 512;

  void grow() {
    const std::size_t base = capacity();
    chunks_.push_back(std::make_unique<Packet[]>(kChunkSize));
    // Reserving for every slot keeps release() allocation-free forever.
    free_.reserve(base + kChunkSize);
    for (std::size_t i = kChunkSize; i-- > 0;) {
      free_.push_back(static_cast<PacketHandle>(base + i));
    }
#if NOCALLOC_DCHECK_ENABLED
    live_flag_.resize(base + kChunkSize, 0);
#endif
  }

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<PacketHandle> free_;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
  // Unconditional member (only *used* under NOCALLOC_DCHECK_ENABLED) so the
  // arena's layout -- and that of every object embedding it -- is identical
  // across debug and release translation units.
  std::vector<std::uint8_t> live_flag_;
};

}  // namespace nocalloc::noc
