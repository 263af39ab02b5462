#include "sweep/sweep_cache.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/check.hpp"
#include "common/snapshot.hpp"
#include "sweep/snapshot_io.hpp"

namespace nocalloc::sweep {

namespace {

/// "NRES" as a little-endian u32; result records are not snapshot files.
constexpr std::uint32_t kResultMagic = 0x5345524Eu;
constexpr std::uint16_t kResultFormatVersion = 1;

std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// SimResult record payload, field by field at fixed width (doubles as raw
/// IEEE-754 bits, the flag as a whole word) so cached and freshly computed
/// results compare bit-identically.
void result_state(StateArchive& ar, noc::SimResult& r) {
  ar.pod(r.avg_packet_latency);
  ar.pod(r.avg_network_latency);
  ar.pod(r.p99_packet_latency);
  ar.u64(r.packets_measured);
  ar.pod(r.offered_flit_rate);
  ar.pod(r.accepted_flit_rate);
  std::uint64_t saturated = r.saturated ? 1 : 0;
  ar.u64(saturated);
  r.saturated = saturated != 0;
  ar.u64(r.spec_grants_used);
  ar.u64(r.misspeculations);
  ar.pod(r.ugal_nonminimal_fraction);
  ar.u64(r.cycles_simulated);
  ar.u64(r.router_steps_total);
  ar.u64(r.router_steps_skipped);
  ar.u64(r.arena_high_water);
}

/// magic + format version + reserved pad + results version + key echo,
/// then the payload, then FNV-1a over everything before the hash. The key
/// echo catches a record renamed to the wrong slot; the trailing hash
/// catches torn or bit-flipped bytes.
constexpr std::size_t kResultHeaderSize = 4 + 2 + 2 + 8 + 8;
constexpr std::size_t kResultPayloadWords = 14;
constexpr std::size_t kResultRecordSize =
    kResultHeaderSize + kResultPayloadWords * 8 + 8;

/// Everything before the trailing hash: the header, then the payload.
/// Returns false, without touching `result`, when a loaded header is not
/// this build's record for `key`.
bool record_state(StateArchive& ar, std::uint64_t key,
                  noc::SimResult& result) {
  std::uint32_t magic = kResultMagic;
  std::uint16_t version = kResultFormatVersion;
  std::uint16_t reserved = 0;
  std::uint64_t results_version = kResultsVersion;
  std::uint64_t key_echo = key;
  ar.pod(magic);
  ar.pod(version);
  ar.pod(reserved);
  ar.u64(results_version);
  ar.u64(key_echo);
  if (magic != kResultMagic || version != kResultFormatVersion ||
      results_version != kResultsVersion || key_echo != key) {
    return false;
  }
  result_state(ar, result);
  return true;
}

void encode_result(std::uint64_t key, noc::SimResult result,
                   std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(kResultRecordSize);
  StateArchive ar = StateArchive::saving_to(out);
  record_state(ar, key, result);
  std::uint64_t hash = fnv1a(out.data(), out.size());
  ar.u64(hash);
}

bool decode_result(const std::vector<std::uint8_t>& bytes, std::uint64_t key,
                   noc::SimResult& out) {
  if (bytes.size() != kResultRecordSize) return false;
  StateArchive ar = StateArchive::loading_from(bytes);
  if (!record_state(ar, key, out)) return false;
  std::uint64_t hash = 0;
  ar.u64(hash);
  return hash == fnv1a(bytes.data(), kResultRecordSize - 8);
}

/// `dir`/`stem`<16 lowercase hex digits of `value`>`ext`, built in one
/// allocation: the file name of a cache record.
std::string cache_file_path(const std::string& dir, std::string_view stem,
                            std::uint64_t value, std::string_view ext) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  std::string path;
  path.reserve(dir.size() + 1 + stem.size() + 16 + ext.size());
  path.append(dir).append(1, '/').append(stem);
  for (int shift = 60; shift >= 0; shift -= 4) {
    path.push_back(kHexDigits[(value >> shift) & 0xF]);
  }
  path.append(ext);
  return path;
}

/// Mixes a domain tag, the results version, and extra words into a config
/// hash, so e.g. a cold-batch record can never answer a curve-point query.
std::uint64_t derive_key(char domain, const noc::SimConfig& cfg,
                         const std::uint64_t* extra, std::size_t n_extra) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(1 + 8 + 8 * n_extra + kCanonicalConfigSize);
  bytes.push_back(static_cast<std::uint8_t>(domain));
  StateArchive ar = StateArchive::saving_to(bytes);
  std::uint64_t results_version = kResultsVersion;
  ar.u64(results_version);
  for (std::size_t i = 0; i < n_extra; ++i) {
    std::uint64_t word = extra[i];
    ar.u64(word);
  }
  canonical_config_bytes(cfg, bytes);
  return fnv1a(bytes.data(), bytes.size());
}

}  // namespace

SweepCache::SweepCache(std::string dir) : dir_(std::move(dir)) {
  // EEXIST is the common, fine case. Whatever mkdir says, the path must be
  // a directory now: otherwise every lookup would miss and every store
  // fail without a word.
  const int err = ::mkdir(dir_.c_str(), 0755) == 0 ? 0 : errno;
  struct stat st = {};
  if (::stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    fail("sweep cache path '" + dir_ +
         "' (NOCALLOC_SWEEP_CACHE) is not a directory and cannot be made "
         "one: " +
         std::strerror(err != 0 && err != EEXIST ? err : ENOTDIR));
  }
}

std::unique_ptr<SweepCache> SweepCache::from_env() {
  const char* dir = std::getenv("NOCALLOC_SWEEP_CACHE");
  if (dir == nullptr || dir[0] == '\0') return nullptr;
  return std::make_unique<SweepCache>(dir);
}

std::uint64_t SweepCache::batch_key(const noc::SimConfig& cfg) {
  return derive_key('B', cfg, nullptr, 0);
}

std::uint64_t SweepCache::curve_point_key(const noc::SimConfig& point_cfg,
                                          double warm_rate,
                                          std::uint64_t fork_warmup) {
  const std::uint64_t extra[2] = {double_bits(warm_rate), fork_warmup};
  return derive_key('C', point_cfg, extra, 2);
}

std::string SweepCache::result_path(std::uint64_t key) const {
  return cache_file_path(dir_, "res-", key, ".nres");
}

bool SweepCache::lookup_result(std::uint64_t key, noc::SimResult& out) const {
  const std::string path = result_path(key);
  std::vector<std::uint8_t> bytes;
  if (!read_file(path, bytes)) return false;
  if (decode_result(bytes, key, out)) return true;
  // Corrupt or stale record: delete it so the slot heals on the next
  // store, and recompute (a miss can only cost time, never correctness).
  std::remove(path.c_str());
  return false;
}

void SweepCache::store_result(std::uint64_t key,
                              const noc::SimResult& result) const {
  std::vector<std::uint8_t> bytes;
  encode_result(key, result, bytes);
  // A failed store (e.g. a read-only cache dir) only costs a later miss.
  write_file_atomic(result_path(key), bytes);
}

std::string SweepCache::snapshot_path(const noc::SimConfig& warm_cfg) const {
  return cache_file_path(dir_, "snap-", config_fingerprint(warm_cfg), ".nsnp");
}

bool SweepCache::lookup_snapshot(const noc::SimConfig& warm_cfg,
                                 noc::SimSnapshot& out) const {
  return static_cast<bool>(
      read_snapshot_file(snapshot_path(warm_cfg), warm_cfg, out));
}

void SweepCache::store_snapshot(const noc::SimConfig& warm_cfg,
                                const noc::SimSnapshot& snap) const {
  write_snapshot_file(snapshot_path(warm_cfg), warm_cfg, snap);
}

}  // namespace nocalloc::sweep
