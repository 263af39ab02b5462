// Content-keyed persistent cache for warm-fork curve points and warm
// snapshots.
//
// Every paper figure is assembled from (design point, load, seed)
// simulations that are pure functions of their SimConfig -- so a finished
// curve point's SimResult can be keyed by the content that determined it
// and reused forever: repeated figure runs become cache hits, and the
// warm-up behind each latency curve is paid once per design point ACROSS
// runs and processes, not per invocation.
//
// A result record has one key kind, the curve point: an FNV-1a hash over
// the canonical config encoding at the point's rate (snapshot_io.hpp: every
// field at fixed width, doubles as raw bits -- seed, load point, and
// warm-up/measure/drain window lengths included), the warm rate and
// fork-warmup length that shaped the point's history, and kResultsVersion,
// which must be bumped whenever a code change alters simulation results --
// that is the invalidation rule; there is no TTL.
//
// Storage is one file per record in a cache directory, published with a
// file-lock-guarded atomic rename, so any number of threads AND processes
// (figure benches, the benchmark, CI jobs, tools/nocsweep sharing one
// directory) can read and write concurrently; readers only ever observe
// complete files. A hit costs one open/fstat/read/close (read_file) and a
// store one open/write/close plus the rename (write_file_atomic), with no
// stdio on either path: a rerun of a cached figure is a replay at syscall
// cost. A
// corrupt or stale record (bad magic, wrong version, key or hash mismatch,
// truncation, trailing bytes) is treated as a miss, deleted and recomputed
// -- the cache can never serve wrong bytes, and because simulations are
// deterministic a recomputed record is byte-identical to what the lost one
// was.
//
// Opt-in: SweepCache::from_env() reads NOCALLOC_SWEEP_CACHE; when unset
// run_warm_curves (sweep/sim_batch) runs exactly as before. Cached and
// uncached runs return bit-identical results by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "noc/sim.hpp"

namespace nocalloc::sweep {

/// Code-results version: bump on ANY change that alters simulation results
/// (allocator behavior, RNG draws, statistics) so stale records miss.
inline constexpr std::uint64_t kResultsVersion = 1;

class SweepCache {
 public:
  /// Uses (and creates, one level deep) `dir` as the cache directory.
  /// Aborts with a message naming `dir` when it is not a directory and
  /// cannot be made one (a regular file, a missing parent); a read-only
  /// directory is accepted, and its failed stores only cost later misses.
  explicit SweepCache(std::string dir);

  /// Builds a cache from NOCALLOC_SWEEP_CACHE; null when the variable is
  /// unset or empty (caching disabled).
  static std::unique_ptr<SweepCache> from_env();

  const std::string& dir() const { return dir_; }

  // ---- result records -------------------------------------------------

  /// Key of one warm-fork curve point: `point_cfg` is the curve's base
  /// config at the point's injection rate; `warm_rate` is the rate the
  /// design point was warmed at (the curve's lowest) and `fork_warmup` the
  /// post-restore adjustment cycles -- both shape the result, so both key.
  static std::uint64_t curve_point_key(const noc::SimConfig& point_cfg,
                                       double warm_rate,
                                       std::uint64_t fork_warmup);

  /// True and fills `out` on a valid hit; false on miss OR on a record
  /// that fails validation (which is deleted so the slot heals on the next
  /// store).
  bool lookup_result(std::uint64_t key, noc::SimResult& out) const;

  /// Publishes a finished curve-point result under `key` (atomic rename behind a
  /// directory-wide file lock; safe across threads and processes).
  void store_result(std::uint64_t key, const noc::SimResult& result) const;

  // ---- warm snapshots -------------------------------------------------

  /// True and fills `out` when a valid warm snapshot for `warm_cfg` is on
  /// disk (strict snapshot_io validation; any mismatch is a miss).
  bool lookup_snapshot(const noc::SimConfig& warm_cfg,
                       noc::SimSnapshot& out) const;

  /// Persists the warm state of `warm_cfg` (atomic, lock-guarded).
  void store_snapshot(const noc::SimConfig& warm_cfg,
                      const noc::SimSnapshot& snap) const;

 private:
  std::string result_path(std::uint64_t key) const;
  std::string snapshot_path(const noc::SimConfig& warm_cfg) const;

  std::string dir_;
};

}  // namespace nocalloc::sweep
