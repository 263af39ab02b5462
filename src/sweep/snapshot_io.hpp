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
// read_snapshot_file() reads the file (read_file: one POSIX
// open/fstat/read/close) and decode_snapshot()s it; decode_snapshot() also
// validates any in-memory image. Snapshot files and the sweep cache's
// result records are both published through write_file_atomic().
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

/// Bytes canonical_config_bytes() appends: 17 fields of one id byte and
/// eight value bytes each.
inline constexpr std::size_t kCanonicalConfigSize = 17 * 9;

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

/// Strictly validates and decodes an encoded snapshot image (e.g. a file's
/// bytes). `expected_fingerprint` must be config_fingerprint() of the
/// config the caller will restore into. The payload bytes are copied into
/// `out`.
IoStatus decode_snapshot(const std::uint8_t* data, std::size_t size,
                         std::uint64_t expected_fingerprint,
                         noc::SimSnapshot& out);

/// Reads the whole regular file at `path` into `out` with one open, fstat,
/// read and close (POSIX, no stdio). The one reader of snapshot files and
/// sweep-cache result records.
IoStatus read_file(const std::string& path, std::vector<std::uint8_t>& out);

/// Publishes `bytes` at `path` so concurrent readers only ever observe
/// complete files: writes a temp file beside it (named uniquely across
/// threads and processes; POSIX open/write/close, no stdio), then renames
/// it over `path` once, holding an exclusive flock on
/// `<directory of path>/.lock` for the rename.
IoStatus write_file_atomic(const std::string& path,
                           const std::vector<std::uint8_t>& bytes);

/// encode_snapshot() + write_file_atomic().
IoStatus write_snapshot_file(const std::string& path,
                             const noc::SimConfig& cfg,
                             const noc::SimSnapshot& snap);

/// read_file() + decode_snapshot() against config_fingerprint(cfg).
IoStatus read_snapshot_file(const std::string& path, const noc::SimConfig& cfg,
                            noc::SimSnapshot& out);

}  // namespace nocalloc::sweep
