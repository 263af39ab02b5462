// The content-keyed sweep result cache: a cache can make sweeps faster,
// never different. Cold (computing + storing), warm (serving), and
// disabled runs must return bit-identical results; keys must move with
// every input that shapes a result; and corrupted entries must be detected
// and silently recomputed.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <map>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "noc/sim.hpp"
#include "sweep/sim_batch.hpp"
#include "sweep/snapshot_io.hpp"
#include "sweep/sweep_cache.hpp"
#include "sim_result_eq.hpp"

namespace nocalloc::sweep {
namespace {

noc::SimConfig small_config() {
  noc::SimConfig cfg;
  cfg.topology = noc::TopologyKind::kMesh8x8;
  cfg.vcs_per_class = 2;
  cfg.injection_rate = 0.1;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 800;
  cfg.seed = 7;
  return cfg;
}

/// A one-rate curve with no fork warmup: one cold simulation of `cfg`.
CurveSpec one_point(const noc::SimConfig& cfg) {
  CurveSpec spec;
  spec.base = cfg;
  spec.rates = {cfg.injection_rate};
  spec.fork_warmup_cycles = 0;
  spec.stop_at_saturation = false;
  return spec;
}

/// The cache key of `cfg` run as one_point(cfg).
std::uint64_t one_point_key(const noc::SimConfig& cfg) {
  return SweepCache::curve_point_key(cfg, cfg.injection_rate, 0);
}

/// Fresh cache directory per test, with NOCALLOC_SWEEP_CACHE pointed at it
/// for the duration (the sweep entry points read it per call, so flipping
/// it between calls takes effect immediately).
class SweepCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = ::testing::TempDir() + "sweepcache_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(::mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
    enable();
  }
  void TearDown() override { disable(); }

  void enable() { ::setenv("NOCALLOC_SWEEP_CACHE", dir_.c_str(), 1); }
  void disable() { ::unsetenv("NOCALLOC_SWEEP_CACHE"); }

  /// Cache files present (lock file excluded).
  std::vector<std::string> entries() const {
    std::vector<std::string> names;
    DIR* d = ::opendir(dir_.c_str());
    EXPECT_NE(d, nullptr);
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == ".." || name == ".lock") continue;
      names.push_back(name);
    }
    ::closedir(d);
    return names;
  }

  ino_t inode(const std::string& name) const {
    struct stat st = {};
    EXPECT_EQ(::stat((dir_ + "/" + name).c_str(), &st), 0) << name;
    return st.st_ino;
  }

  void corrupt(const std::string& name, std::size_t offset) const {
    const std::string p = dir_ + "/" + name;
    std::FILE* f = std::fopen(p.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }

  std::string dir_;
};

TEST_F(SweepCacheTest, FromEnvHonorsVariable) {
  EXPECT_NE(SweepCache::from_env(), nullptr);
  disable();
  EXPECT_EQ(SweepCache::from_env(), nullptr);
  ::setenv("NOCALLOC_SWEEP_CACHE", "", 1);
  EXPECT_EQ(SweepCache::from_env(), nullptr);
}

TEST_F(SweepCacheTest, ResultRecordRoundTrips) {
  const SweepCache cache(dir_);
  const std::uint64_t key = one_point_key(small_config());

  noc::SimResult miss;
  EXPECT_FALSE(cache.lookup_result(key, miss));

  const noc::SimResult want = noc::run_simulation(small_config());
  cache.store_result(key, want);
  noc::SimResult got;
  ASSERT_TRUE(cache.lookup_result(key, got));
  expect_identical(got, want);
}

// Every input that shapes a result must move its key: seed, load, window
// lengths, design-point structure, the warm rate and the fork-warmup
// length.
TEST_F(SweepCacheTest, KeysSensitiveToEveryResultShapingInput) {
  const noc::SimConfig base = small_config();
  const auto key_of = [](const noc::SimConfig& cfg) {
    return SweepCache::curve_point_key(cfg, 0.05, 1000);
  };
  const std::uint64_t key = key_of(base);

  noc::SimConfig c = base;
  c.seed += 1;
  EXPECT_NE(key_of(c), key);

  c = base;
  c.injection_rate = 0.2;
  EXPECT_NE(key_of(c), key);

  c = base;
  c.measure_cycles += 1;
  EXPECT_NE(key_of(c), key);

  c = base;
  c.warmup_cycles += 1;
  EXPECT_NE(key_of(c), key);

  c = base;
  c.sw_arb = ArbiterKind::kMatrix;
  EXPECT_NE(key_of(c), key);

  c = base;
  c.buffer_depth += 1;
  EXPECT_NE(key_of(c), key);

  // The point's fork history moves it too.
  EXPECT_NE(SweepCache::curve_point_key(base, 0.06, 1000), key);
  EXPECT_NE(SweepCache::curve_point_key(base, 0.05, 1001), key);
  // And identical inputs agree (stability across processes).
  EXPECT_EQ(SweepCache::curve_point_key(base, 0.05, 1000), key);
}

// Cold, warm, and disabled runs of independent one-rate curves (the
// UGAL-threshold ablation's shape) are bit-identical, and the warm run
// creates no new cache files (everything was served).
TEST_F(SweepCacheTest, BatchColdWarmDisabledIdentity) {
  std::vector<CurveSpec> specs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    noc::SimConfig cfg = small_config();
    cfg.seed = 100 + s;
    specs.push_back(one_point(cfg));
  }
  ThreadPool pool(2);

  disable();
  const std::vector<Curve> plain = run_warm_curves(pool, specs);

  enable();
  const std::vector<Curve> cold = run_warm_curves(pool, specs);
  const std::vector<std::string> after_cold = entries();
  EXPECT_EQ(after_cold.size(), 2 * specs.size());  // record + snapshot each

  const std::vector<Curve> hot = run_warm_curves(pool, specs);
  EXPECT_EQ(entries().size(), after_cold.size());

  ASSERT_EQ(plain.size(), specs.size());
  ASSERT_EQ(cold.size(), plain.size());
  ASSERT_EQ(hot.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(plain[i].points.size(), 1u);
    ASSERT_EQ(cold[i].points.size(), 1u);
    ASSERT_EQ(hot[i].points.size(), 1u);
    expect_identical(cold[i].points[0].result, plain[i].points[0].result);
    expect_identical(hot[i].points[0].result, plain[i].points[0].result);
  }
}

// Full warm-fork curves: cold, warm, and disabled runs agree point for
// point, for both the sharded and the saturation-stopped shape, and the
// warm rerun of a sharded curve simulates nothing (no warmup, no forks --
// observable as no new files and no snapshot store write).
TEST_F(SweepCacheTest, CurveColdWarmDisabledIdentity) {
  CurveSpec spec;
  spec.base = small_config();
  spec.rates = {0.05, 0.10, 0.15, 0.20};
  spec.fork_warmup_cycles = 200;
  spec.stop_at_saturation = false;

  CurveSpec serial = spec;
  serial.stop_at_saturation = true;

  ThreadPool pool(2);

  disable();
  const std::vector<Curve> plain = run_warm_curves(pool, {spec, serial});

  enable();
  const std::vector<Curve> cold = run_warm_curves(pool, {spec, serial});
  const std::size_t files_after_cold = entries().size();
  const std::vector<Curve> hot = run_warm_curves(pool, {spec, serial});
  EXPECT_EQ(entries().size(), files_after_cold);

  ASSERT_EQ(plain.size(), 2u);
  for (std::size_t c = 0; c < plain.size(); ++c) {
    ASSERT_EQ(cold[c].points.size(), plain[c].points.size());
    ASSERT_EQ(hot[c].points.size(), plain[c].points.size());
    for (std::size_t p = 0; p < plain[c].points.size(); ++p) {
      EXPECT_EQ(cold[c].points[p].run, plain[c].points[p].run);
      EXPECT_EQ(hot[c].points[p].run, plain[c].points[p].run);
      if (!plain[c].points[p].run) continue;
      expect_identical(cold[c].points[p].result, plain[c].points[p].result);
      expect_identical(hot[c].points[p].result, plain[c].points[p].result);
    }
  }
}

// An interrupted all-rates curve (the nocsweep shape) resumes from the
// cache: rerunning over {a, b, c} after a run over {a, b} serves a and b
// and the warm snapshot from disk and simulates only c, and the curve
// matches a cache-off run. Every store publishes a fresh file by rename,
// so an unchanged inode proves the record was not rewritten.
TEST_F(SweepCacheTest, PartiallyCachedShardedCurveSimulatesOnlyMisses) {
  CurveSpec spec;
  spec.base = small_config();
  spec.rates = {0.05, 0.10};
  spec.fork_warmup_cycles = 200;
  spec.stop_at_saturation = false;
  ThreadPool pool(2);

  run_warm_curves(pool, {spec});
  std::map<std::string, ino_t> before;
  for (const std::string& name : entries()) before[name] = inode(name);
  ASSERT_EQ(before.size(), 3u);  // warm snapshot + two points

  spec.rates.push_back(0.15);
  const std::vector<Curve> resumed = run_warm_curves(pool, {spec});
  const std::vector<std::string> after = entries();
  EXPECT_EQ(after.size(), before.size() + 1);
  for (const auto& [name, ino] : before) {
    EXPECT_EQ(inode(name), ino) << name << " was rewritten";
  }

  disable();
  const std::vector<Curve> plain = run_warm_curves(pool, {spec});
  ASSERT_EQ(resumed[0].points.size(), 3u);
  ASSERT_EQ(plain[0].points.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(resumed[0].points[p].rate, plain[0].points[p].rate);
    ASSERT_TRUE(resumed[0].points[p].run);
    ASSERT_TRUE(plain[0].points[p].run);
    expect_identical(resumed[0].points[p].result, plain[0].points[p].result);
  }
}

// A corrupted result record is detected, recomputed, and healed --
// results stay identical to the pristine run.
TEST_F(SweepCacheTest, CorruptedEntryIsRecomputed) {
  const std::vector<CurveSpec> specs = {one_point(small_config())};
  const std::uint64_t key = one_point_key(small_config());
  ThreadPool pool(1);

  const std::vector<Curve> cold = run_warm_curves(pool, specs);
  ASSERT_EQ(entries().size(), 2u);  // the record and the warm snapshot
  char record[32];
  std::snprintf(record, sizeof(record), "res-%016llx.nres",
                static_cast<unsigned long long>(key));

  corrupt(record, 40);  // flip a payload bit
  const std::vector<Curve> healed = run_warm_curves(pool, specs);
  expect_identical(healed[0].points[0].result, cold[0].points[0].result);

  // The record was rewritten and validates again: a further run hits
  // without creating anything new.
  ASSERT_EQ(entries().size(), 2u);
  noc::SimResult stored;
  ASSERT_TRUE(SweepCache(dir_).lookup_result(key, stored));
  expect_identical(stored, cold[0].points[0].result);
  const std::vector<Curve> hot = run_warm_curves(pool, specs);
  expect_identical(hot[0].points[0].result, cold[0].points[0].result);
  EXPECT_EQ(entries().size(), 2u);
}

// Record fuzz: every single-bit flip, every truncation and an appended
// byte or 4 KiB of a result record is a miss that deletes the file --
// never a hit on wrong bytes and never an abort -- and the intact record
// still hits afterwards.
TEST_F(SweepCacheTest, EveryRecordBitFlipAndTruncationIsAMiss) {
  const SweepCache cache(dir_);
  noc::SimResult result;
  result.avg_packet_latency = 21.5;
  result.packets_measured = 4096;
  result.saturated = true;
  result.arena_high_water = 77;
  const std::uint64_t key = one_point_key(small_config());
  cache.store_result(key, result);
  const std::vector<std::string> files = entries();
  ASSERT_EQ(files.size(), 1u);
  const std::string path = dir_ + "/" + files[0];
  std::vector<std::uint8_t> good;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    for (int c = 0; (c = std::fgetc(f)) != EOF;) {
      good.push_back(static_cast<std::uint8_t>(c));
    }
    std::fclose(f);
  }
  const auto write = [&](const std::vector<std::uint8_t>& bytes,
                         std::size_t len) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, len, f), len);
    std::fclose(f);
  };
  const auto expect_miss = [&](const std::string& what) {
    noc::SimResult out;
    EXPECT_FALSE(cache.lookup_result(key, out)) << what;
    struct stat st = {};
    EXPECT_NE(::stat(path.c_str(), &st), 0) << what << ": file kept";
  };

  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::vector<std::uint8_t> bad = good;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    write(bad, bad.size());
    expect_miss("bit " + std::to_string(bit));
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    write(good, len);
    expect_miss("length " + std::to_string(len));
  }
  for (const std::size_t extra : {std::size_t{1}, std::size_t{4096}}) {
    std::vector<std::uint8_t> longer = good;
    longer.resize(good.size() + extra, 0xA5);
    write(longer, longer.size());
    expect_miss(std::to_string(extra) + " bytes appended");
  }

  write(good, good.size());
  noc::SimResult out;
  ASSERT_TRUE(cache.lookup_result(key, out));
  expect_identical(out, result);
}

// A directory at a record's or snapshot's path is a miss, not an abort;
// it is left in place, and a store over it fails without a word.
TEST_F(SweepCacheTest, DirectoryAtRecordPathIsAMiss) {
  const SweepCache cache(dir_);
  const noc::SimConfig cfg = small_config();
  const std::uint64_t key = one_point_key(cfg);
  char name[32];
  std::snprintf(name, sizeof(name), "res-%016llx.nres",
                static_cast<unsigned long long>(key));
  ASSERT_EQ(::mkdir((dir_ + "/" + name).c_str(), 0755), 0);

  noc::SimResult out;
  EXPECT_FALSE(cache.lookup_result(key, out));
  cache.store_result(key, out);
  EXPECT_FALSE(cache.lookup_result(key, out));
  struct stat st = {};
  ASSERT_EQ(::stat((dir_ + "/" + name).c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));

  std::snprintf(name, sizeof(name), "snap-%016llx.nsnp",
                static_cast<unsigned long long>(config_fingerprint(cfg)));
  ASSERT_EQ(::mkdir((dir_ + "/" + name).c_str(), 0755), 0);
  noc::SimSnapshot snap;
  EXPECT_FALSE(cache.lookup_snapshot(cfg, snap));
}

// A cache path that cannot be a directory aborts naming the path and the
// variable, instead of silently recomputing everything.
using SweepCacheDeathTest = SweepCacheTest;

TEST_F(SweepCacheDeathTest, PathThatIsAFileAborts) {
  const std::string file = dir_ + "/plain-file";
  std::FILE* f = std::fopen(file.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  ::setenv("NOCALLOC_SWEEP_CACHE", file.c_str(), 1);
  EXPECT_DEATH(SweepCache::from_env(),
               "sweep cache path '.*/plain-file' \\(NOCALLOC_SWEEP_CACHE\\) "
               "is not a directory");
}

TEST_F(SweepCacheDeathTest, PathWithMissingParentAborts) {
  ::setenv("NOCALLOC_SWEEP_CACHE", (dir_ + "/missing/cache").c_str(), 1);
  EXPECT_DEATH(SweepCache::from_env(),
               "sweep cache path '.*/missing/cache' "
               "\\(NOCALLOC_SWEEP_CACHE\\) is not a directory");
}

// A record stored under one key can never answer another (the key echo in
// the record catches renamed/misplaced files).
TEST_F(SweepCacheTest, RecordBoundToItsKey) {
  const SweepCache cache(dir_);
  const noc::SimResult result = noc::run_simulation(small_config());
  const std::uint64_t key = one_point_key(small_config());
  cache.store_result(key, result);

  std::vector<std::string> files = entries();
  ASSERT_EQ(files.size(), 1u);
  noc::SimConfig other = small_config();
  other.seed += 1;
  const std::uint64_t other_key = one_point_key(other);
  ASSERT_EQ(std::rename((dir_ + "/" + files[0]).c_str(),
                        (dir_ + "/res-" +
                         [&] {
                           char buf[17];
                           std::snprintf(buf, sizeof(buf), "%016llx",
                                         static_cast<unsigned long long>(
                                             other_key));
                           return std::string(buf);
                         }() + ".nres")
                            .c_str()),
            0);
  noc::SimResult out;
  EXPECT_FALSE(cache.lookup_result(other_key, out));
}

// Warm snapshots round-trip through the store byte-identically.
TEST_F(SweepCacheTest, SnapshotStoreRoundTrips) {
  const SweepCache cache(dir_);
  const noc::SimConfig cfg = small_config();

  noc::SimSnapshot miss;
  EXPECT_FALSE(cache.lookup_snapshot(cfg, miss));

  noc::SimInstance sim(cfg);
  sim.warmup();
  noc::SimSnapshot snap;
  sim.snapshot(snap);
  cache.store_snapshot(cfg, snap);

  noc::SimSnapshot got;
  ASSERT_TRUE(cache.lookup_snapshot(cfg, got));
  EXPECT_EQ(got.network.bytes, snap.network.bytes);
  EXPECT_EQ(got.driver, snap.driver);

  // A different config does not see it.
  noc::SimConfig other = cfg;
  other.injection_rate = 0.2;
  EXPECT_FALSE(cache.lookup_snapshot(other, got));
}

}  // namespace
}  // namespace nocalloc::sweep
