#include "sweep/snapshot_io.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/snapshot.hpp"

namespace nocalloc::sweep {

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

namespace {

/// One canonical config field: id byte + fixed-width little-endian value.
/// The id makes the encoding self-delimiting under evolution -- a new field
/// appended with a fresh id can never collide with an old layout.
void field_u64(std::vector<std::uint8_t>& out, std::uint8_t id,
               std::uint64_t value) {
  StateArchive ar = StateArchive::saving_to(out);
  ar.pod(id);
  ar.u64(value);
}

void field_f64(std::vector<std::uint8_t>& out, std::uint8_t id, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  field_u64(out, id, bits);
}

std::uint64_t hash_payload(const noc::SimSnapshot& snap) {
  return fnv1a(snap.driver.data(), snap.driver.size(),
               fnv1a(snap.network.bytes.data(), snap.network.bytes.size()));
}

/// Serializes the renames that publish files in one directory, across
/// threads and processes. flock on a dedicated lock file (never the data
/// files: their names come and go under rename) -- advisory, but every
/// writer is this code.
class DirLock {
 public:
  explicit DirLock(const std::string& dir) {
    fd_ = ::open((dir + "/.lock").c_str(), O_CREAT | O_RDWR, 0644);
    if (fd_ >= 0) ::flock(fd_, LOCK_EX);
  }
  ~DirLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

 private:
  int fd_ = -1;
};

/// Unique within and across processes: pid + a process-wide counter (pool
/// threads publish concurrently into one directory).
std::string unique_tmp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  return ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

void header_state(StateArchive& ar, SnapshotHeader& h) {
  ar.pod(h.magic);
  ar.pod(h.version);
  ar.pod(h.endian);
  ar.pod(h.reserved);
  ar.u64(h.config_fingerprint);
  ar.u64(h.network_size);
  ar.u64(h.driver_size);
  ar.u64(h.payload_hash);
}

}  // namespace

void canonical_config_bytes(const noc::SimConfig& cfg,
                            std::vector<std::uint8_t>& out) {
  field_u64(out, 0x01, static_cast<std::uint64_t>(cfg.topology));
  field_u64(out, 0x02, cfg.vcs_per_class);
  field_u64(out, 0x03, static_cast<std::uint64_t>(cfg.vc_alloc));
  field_u64(out, 0x04, static_cast<std::uint64_t>(cfg.vc_arb));
  field_u64(out, 0x05, static_cast<std::uint64_t>(cfg.sw_alloc));
  field_u64(out, 0x06, static_cast<std::uint64_t>(cfg.sw_arb));
  field_u64(out, 0x07, static_cast<std::uint64_t>(cfg.spec));
  field_u64(out, 0x08, cfg.buffer_depth);
  field_u64(out, 0x09, cfg.ugal_threshold);
  field_u64(out, 0x0A, static_cast<std::uint64_t>(cfg.pattern));
  field_f64(out, 0x0B, cfg.injection_rate);
  field_u64(out, 0x0C, cfg.warmup_cycles);
  field_u64(out, 0x0D, cfg.measure_cycles);
  field_u64(out, 0x0E, cfg.drain_cycles);
  field_u64(out, 0x0F, cfg.seed);
  field_u64(out, 0x10, cfg.check_invariants ? 1 : 0);
  field_u64(out, 0x11, cfg.disable_datelines ? 1 : 0);
}

std::uint64_t config_fingerprint(const noc::SimConfig& cfg) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kCanonicalConfigSize);
  canonical_config_bytes(cfg, bytes);
  // Seed with the format version so an encoding change invalidates every
  // existing file even for unchanged configs.
  const std::uint64_t seed =
      fnv1a(nullptr, 0) ^ (std::uint64_t{kSnapshotFormatVersion} << 32);
  return fnv1a(bytes.data(), bytes.size(), seed);
}

void encode_snapshot(const noc::SimConfig& cfg, const noc::SimSnapshot& snap,
                     std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(kSnapshotHeaderSize + snap.network.bytes.size() +
              snap.driver.size());
  SnapshotHeader header;
  header.config_fingerprint = config_fingerprint(cfg);
  header.network_size = snap.network.bytes.size();
  header.driver_size = snap.driver.size();
  header.payload_hash = hash_payload(snap);
  StateArchive ar = StateArchive::saving_to(out);
  header_state(ar, header);
  out.insert(out.end(), snap.network.bytes.begin(), snap.network.bytes.end());
  out.insert(out.end(), snap.driver.begin(), snap.driver.end());
}

IoStatus decode_snapshot(const std::uint8_t* data, std::size_t size,
                         std::uint64_t expected_fingerprint,
                         noc::SimSnapshot& out) {
  if (size < kSnapshotHeaderSize) {
    return IoStatus::failure("truncated snapshot: " + std::to_string(size) +
                             " bytes is smaller than the header");
  }
  StateArchive ar = StateArchive::loading_from(data, size);
  SnapshotHeader h;
  header_state(ar, h);
  if (h.magic != kSnapshotMagic) {
    return IoStatus::failure("bad magic: not a nocalloc snapshot file");
  }
  if (h.version != kSnapshotFormatVersion) {
    return IoStatus::failure(
        "format version mismatch: file has v" + std::to_string(h.version) +
        ", this build reads v" + std::to_string(kSnapshotFormatVersion));
  }
  if (h.endian != kSnapshotLittleEndian) {
    return IoStatus::failure("endianness mismatch: file not little-endian");
  }
  if (h.reserved != 0) {
    return IoStatus::failure("bad reserved header byte: " +
                             std::to_string(h.reserved) + ", expected 0");
  }
  if (h.config_fingerprint != expected_fingerprint) {
    return IoStatus::failure(
        "config fingerprint mismatch: snapshot was produced by a different "
        "(config, code version) pair");
  }
  const std::uint64_t promised =
      kSnapshotHeaderSize + h.network_size + h.driver_size;
  if (size != promised) {
    return IoStatus::failure(
        std::string(size < promised ? "truncated" : "oversize") +
        " snapshot: header promises " + std::to_string(promised) +
        " bytes, file has " + std::to_string(size));
  }
  const std::uint8_t* network = data + kSnapshotHeaderSize;
  const std::uint8_t* driver = network + h.network_size;
  const std::uint64_t hash = fnv1a(
      driver, static_cast<std::size_t>(h.driver_size),
      fnv1a(network, static_cast<std::size_t>(h.network_size)));
  if (hash != h.payload_hash) {
    return IoStatus::failure("payload hash mismatch: snapshot file corrupt");
  }
  out.network.bytes.assign(network, network + h.network_size);
  out.driver.assign(driver, driver + h.driver_size);
  return {};
}

IoStatus read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return IoStatus::failure("cannot open " + path);
  // Files are published whole by rename, so st_size is the file's length
  // and one read normally fills `out`; loop only on a short read. A file
  // that is not regular (e.g. a directory) or that shrank since the fstat
  // fails to read.
  struct stat st = {};
  bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  if (ok) {
    out.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < out.size()) {
      const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ok = false;
        break;
      }
      got += static_cast<std::size_t>(n);
    }
  }
  ::close(fd);
  if (!ok) return IoStatus::failure("cannot read " + path);
  return {};
}

IoStatus write_file_atomic(const std::string& path,
                           const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + unique_tmp_suffix();
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return IoStatus::failure("cannot open " + tmp + " for writing");
  std::size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + put, bytes.size() - put);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    put += static_cast<std::size_t>(n);
  }
  const bool closed = ::close(fd) == 0;
  if (put != bytes.size() || !closed) {
    ::unlink(tmp.c_str());
    return IoStatus::failure("short write to " + tmp);
  }
  const std::size_t slash = path.rfind('/');
  DirLock lock(slash == std::string::npos ? "." : path.substr(0, slash));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return IoStatus::failure("cannot rename " + tmp + " over " + path);
  }
  return {};
}

IoStatus write_snapshot_file(const std::string& path,
                             const noc::SimConfig& cfg,
                             const noc::SimSnapshot& snap) {
  std::vector<std::uint8_t> bytes;
  encode_snapshot(cfg, snap, bytes);
  return write_file_atomic(path, bytes);
}

IoStatus read_snapshot_file(const std::string& path, const noc::SimConfig& cfg,
                            noc::SimSnapshot& out) {
  std::vector<std::uint8_t> bytes;
  if (IoStatus status = read_file(path, bytes); !status) return status;
  return decode_snapshot(bytes.data(), bytes.size(), config_fingerprint(cfg),
                         out);
}

}  // namespace nocalloc::sweep
