// Plain-data state serialization for warm snapshot/restore.
//
// A warmed-up network simulation is worth real wall-clock time: a
// latency-vs-load sweep re-simulates thousands of warmup cycles per load
// point that differ only in offered load. Snapshot/restore captures every
// piece of mutable simulation state -- arena slabs, ring buffers, credit
// counters, allocator rotating priorities, RNG streams -- as a flat byte
// buffer so a warm state can be saved once per design point and forked per
// load point (including across sweep-shard threads: the buffer is a value).
//
// Each stateful class lists its fields once, in one state(StateArchive&)
// member: a saving archive appends each field to a buffer, a loading
// archive overwrites each field from one, so the writer and the reader can
// never disagree on the field order. Work that only a restore does --
// bounds checks on what was read, rebuilding derived state -- sits in
// `if (ar.loading())` blocks beside the fields it depends on; a saving
// archive only ever reads the object it visits.
//
// The format is a canonical little-endian byte stream with no padding: every
// value is written field by field, and pod()/pod_array() statically reject
// types whose object representation contains padding bytes (those get
// field-wise state() overloads next to their definitions, e.g.
// noc/types.hpp). Two consequences the rest of the system relies on:
//
//   * the stream is deterministic -- two structurally identical objects in
//     the same state produce byte-identical buffers, so snapshots can be
//     compared, hashed (sweep result cache keys), and persisted; and
//   * the encoding is stable across builds on any little-endian host, which
//     is what lets sweep/snapshot_io write snapshots to disk and read them
//     back in another process.
//
// Sections start with a 32-bit tag() and structure sizes go through
// count(); a loading archive aborts via NOCALLOC_CHECK when either differs
// (restoring into a differently-configured object), and on any read past
// the end of its buffer, instead of silently misinterpreting bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace nocalloc {

// The persistent format is defined little-endian; on the (only supported)
// little-endian hosts the in-memory copy IS the encoded form, so both
// directions stay plain memcpys. A big-endian port would add byte swaps here.
static_assert(std::endian::native == std::endian::little,
              "snapshot streams are defined little-endian");

/// True for types pod()/pod_array() may copy verbatim: every bit of the
/// object representation is value bits (no padding), or the type is a
/// floating-point scalar (whose representation is unique per value on
/// IEEE-754 hosts even though the trait reports otherwise). Padded structs
/// must provide field-wise state() overloads instead.
template <typename T>
inline constexpr bool kCanonicalPod =
    std::has_unique_object_representations_v<T> || std::is_floating_point_v<T>;

class StateArchive {
 public:
  /// A saving archive that appends to `out` (which is not cleared; callers
  /// compose sections).
  static StateArchive saving_to(std::vector<std::uint8_t>& out) {
    return StateArchive(&out, nullptr, 0);
  }
  /// A loading archive over `size` bytes at `data`.
  static StateArchive loading_from(const std::uint8_t* data,
                                   std::size_t size) {
    return StateArchive(nullptr, data, size);
  }
  static StateArchive loading_from(const std::vector<std::uint8_t>& bytes) {
    return loading_from(bytes.data(), bytes.size());
  }

  bool saving() const { return out_ != nullptr; }
  bool loading() const { return out_ == nullptr; }

  /// Saves or loads a padding-free trivially copyable value verbatim.
  template <typename T>
  void pod(T& value) {
    if (saving()) {
      // Append from a local copy: a source that cannot alias the buffer
      // lets the append compile to a plain store.
      T copy = value;
      pod_array(&copy, 1);
    } else {
      pod_array(&value, 1);
    }
  }

  /// Saves or loads `count` padding-free trivially copyable values verbatim
  /// (no length prefix; list the count first when it is dynamic).
  template <typename T>
  void pod_array(T* values, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(kCanonicalPod<T>,
                  "type has padding bytes; add a field-wise state() "
                  "overload instead of pod()");
    const std::size_t n = count * sizeof(T);
    if (n == 0) return;
    if (saving()) {
      const std::size_t at = out_->size();
      out_->resize(at + n);
      std::memcpy(out_->data() + at, values, n);
    } else {
      NOCALLOC_CHECK(n <= remaining());
      std::memcpy(values, data_ + pos_, n);
      pos_ += n;
    }
  }

  /// Saves or loads a 64-bit unsigned integer (counters, cycles, sizes).
  /// A size_t field compiles only where it is 64 bits wide, so the stream
  /// never depends on the host's word size.
  template <typename T>
  void u64(T& value) {
    static_assert(std::is_unsigned_v<T> && sizeof(T) == 8);
    pod(value);
  }

  /// Section marker: saved as is; a loading archive aborts unless it reads
  /// the same value, which pins both directions to the same structure.
  void tag(std::uint32_t value) {
    std::uint32_t stored = value;
    pod(stored);
    NOCALLOC_CHECK(stored == value);
  }

  /// A structure size fixed by the configuration (routers, credit slots,
  /// matrix cells): saved as a u64, checked on load like tag().
  void count(std::uint64_t value) {
    std::uint64_t stored = value;
    pod(stored);
    NOCALLOC_CHECK(stored == value);
  }

  /// Bytes a loading archive has not consumed yet.
  std::size_t remaining() const { return size_ - pos_; }

 private:
  StateArchive(std::vector<std::uint8_t>* out, const std::uint8_t* data,
               std::size_t size)
      : out_(out), data_(data), size_(size) {}

  std::vector<std::uint8_t>* out_;
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace nocalloc
