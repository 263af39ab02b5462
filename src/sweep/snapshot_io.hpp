// Persistent warm-snapshot encoding (the disk half of sweep-as-a-service).
//
// A SimSnapshot is already a canonical little-endian byte stream with no
// padding (common/snapshot.hpp), so persisting it is framing, not
// re-encoding: a fixed header -- magic, format version, endianness marker,
// and a fingerprint of the (config, code version) pair that produced the
// state -- followed by the network and driver payloads and guarded by a
// content hash. Every header field is checked strictly on read: a stale,
// truncated, foreign-endian, or wrong-config file can never restore into
// the wrong structure; it is rejected with a human-readable reason instead
// (NEVER a crash -- cache files are runtime data, unlike in-process
// snapshots whose mismatches are programming errors).
//
// read_snapshot_file() maps the file read-only (MappedFile) and
// decode_snapshot()s it, copying the payload into the caller's private
// state; decode_snapshot() also validates any in-memory image.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/sim.hpp"

namespace nocalloc::sweep {

/// "NSNP", read back as a little-endian u32.
inline constexpr std::uint32_t kSnapshotMagic = 0x504E534Eu;
/// Bump on ANY change to the header or payload encoding (including the
/// field order of the canonical stream's codecs); old files then reject
/// cleanly instead of misinterpreting bytes.
inline constexpr std::uint16_t kSnapshotFormatVersion = 1;
/// Value of the header's endianness marker on (the only supported)
/// little-endian hosts.
inline constexpr std::uint8_t kSnapshotLittleEndian = 1;

/// Fixed-size framing; serialized field by field, 40 bytes on disk.
struct SnapshotHeader {
  std::uint32_t magic = kSnapshotMagic;
  std::uint16_t version = kSnapshotFormatVersion;
  std::uint8_t endian = kSnapshotLittleEndian;
  std::uint8_t reserved = 0;
  std::uint64_t config_fingerprint = 0;
  std::uint64_t network_size = 0;
  std::uint64_t driver_size = 0;
  std::uint64_t payload_hash = 0;  // FNV-1a over network then driver bytes
};
inline constexpr std::size_t kSnapshotHeaderSize = 4 + 2 + 1 + 1 + 4 * 8;

/// FNV-1a 64-bit over a byte range, chainable via `seed`.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t seed = 0xCBF29CE484222325ull);

/// Appends the canonical binary encoding of a SimConfig: every field in
/// declaration order at fixed width (doubles as raw IEEE-754 bits), each
/// preceded by a one-byte field id so reordering or adding fields can never
/// alias an old encoding. This is the hash input for snapshot fingerprints
/// and sweep-cache result keys.
void canonical_config_bytes(const noc::SimConfig& cfg,
                            std::vector<std::uint8_t>& out);

/// Fingerprint of (config, snapshot format version): FNV-1a over the
/// canonical config bytes, seeded with the format version. Two configs
/// differing in ANY field -- topology, allocator kinds, seed, rates, phase
/// lengths -- fingerprint differently, so a snapshot can only ever restore
/// into the exact structure that wrote it.
std::uint64_t config_fingerprint(const noc::SimConfig& cfg);

/// Success-or-reason result for the file operations.
struct IoStatus {
  bool ok = true;
  std::string error;

  static IoStatus failure(std::string msg) { return {false, std::move(msg)}; }
  explicit operator bool() const { return ok; }
};

/// Serializes header + payloads for `snap` as produced by `cfg`. Pure
/// function of its inputs (deterministic bytes).
void encode_snapshot(const noc::SimConfig& cfg, const noc::SimSnapshot& snap,
                     std::vector<std::uint8_t>& out);

/// Strictly validates and decodes an encoded snapshot image (e.g. an
/// mmapped file). `expected_fingerprint` must be config_fingerprint() of
/// the config the caller will restore into. The payload bytes are COPIED
/// into `out` -- callers restoring from a shared read-only mapping get
/// private state (copy-on-restore).
IoStatus decode_snapshot(const std::uint8_t* data, std::size_t size,
                         std::uint64_t expected_fingerprint,
                         noc::SimSnapshot& out);

/// Writes atomically: encode to `path + ".tmp.<pid>"`, then rename() over
/// `path`, so concurrent readers only ever observe complete files.
IoStatus write_snapshot_file(const std::string& path,
                             const noc::SimConfig& cfg,
                             const noc::SimSnapshot& snap);

/// Reads + decode_snapshot()s against config_fingerprint(cfg).
IoStatus read_snapshot_file(const std::string& path, const noc::SimConfig& cfg,
                            noc::SimSnapshot& out);

/// Read-only mmap of a file, the input side of read_snapshot_file().
/// Movable, not copyable.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { close(); }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;

  IoStatus open(const std::string& path);
  void close();

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace nocalloc::sweep
