// On-disk snapshot encoding: round-trips must be exact (a disk-restored
// simulation evolves bit-identically to an in-process restore), and every malformed input -- truncation, foreign magic, wrong
// version, mismatched config fingerprint, flipped payload bytes -- must be
// rejected with a readable reason, never a crash or a silent misrestore.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "noc/sim.hpp"
#include "sweep/snapshot_io.hpp"
#include "sim_result_eq.hpp"

namespace nocalloc::sweep {
namespace {

noc::SimConfig small_config() {
  noc::SimConfig cfg;
  cfg.topology = noc::TopologyKind::kMesh8x8;
  cfg.vcs_per_class = 2;
  cfg.injection_rate = 0.12;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 500;
  cfg.drain_cycles = 1500;
  cfg.seed = 0x5EED;
  return cfg;
}

/// Fresh per-test scratch directory under the test temp root.
class SnapshotIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = ::testing::TempDir() + "snapio_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(::mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  static std::vector<std::uint8_t> slurp(const std::string& p) {
    std::FILE* f = std::fopen(p.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
    return bytes;
  }

  static void spit(const std::string& p, const std::vector<std::uint8_t>& b) {
    std::FILE* f = std::fopen(p.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!b.empty()) {
      ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
    }
    std::fclose(f);
  }

  std::string dir_;
};

// The declared header size must be exactly what the encoder emits -- the
// payload offset every reader computes from it.
TEST_F(SnapshotIoTest, EncodedSizeMatchesHeaderArithmetic) {
  const noc::SimConfig cfg = small_config();
  noc::SimInstance sim(cfg);
  sim.warmup();
  noc::SimSnapshot snap;
  sim.snapshot(snap);

  std::vector<std::uint8_t> bytes;
  encode_snapshot(cfg, snap, bytes);
  EXPECT_EQ(bytes.size(), kSnapshotHeaderSize + snap.network.bytes.size() +
                              snap.driver.size());
}

// encode -> decode restores the exact payload bytes, and a simulation
// restored from the decoded snapshot matches the uninterrupted run.
TEST_F(SnapshotIoTest, EncodeDecodeRoundTripsBytes) {
  const noc::SimConfig cfg = small_config();
  noc::SimInstance sim(cfg);
  sim.warmup();
  noc::SimSnapshot snap;
  sim.snapshot(snap);

  std::vector<std::uint8_t> bytes;
  encode_snapshot(cfg, snap, bytes);
  noc::SimSnapshot back;
  const IoStatus status =
      decode_snapshot(bytes.data(), bytes.size(), config_fingerprint(cfg), back);
  ASSERT_TRUE(status) << status.error;
  EXPECT_EQ(back.network.bytes, snap.network.bytes);
  EXPECT_EQ(back.driver, snap.driver);
}

// Disk round-trip into a FRESH instance reproduces the uninterrupted run.
TEST_F(SnapshotIoTest, FileRestoreMatchesInProcessRestore) {
  const noc::SimConfig cfg = small_config();

  noc::SimInstance warm(cfg);
  warm.warmup();
  noc::SimSnapshot snap;
  warm.snapshot(snap);
  const noc::SimResult want = warm.measure_and_drain();

  const std::string p = path("warm.nsnp");
  ASSERT_TRUE(write_snapshot_file(p, cfg, snap));

  noc::SimSnapshot from_disk;
  const IoStatus status = read_snapshot_file(p, cfg, from_disk);
  ASSERT_TRUE(status) << status.error;

  noc::SimInstance fresh(cfg);
  fresh.restore(from_disk);
  expect_identical(fresh.measure_and_drain(), want);
}

// Disk round-trip into a DIRTY instance (ran on past the snapshot at a
// different load) also reproduces it: restore rewinds everything.
TEST_F(SnapshotIoTest, FileRestoreIntoDirtyInstanceMatches) {
  const noc::SimConfig cfg = small_config();

  noc::SimInstance sim(cfg);
  sim.warmup();
  noc::SimSnapshot snap;
  sim.snapshot(snap);

  const std::string p = path("warm.nsnp");
  ASSERT_TRUE(write_snapshot_file(p, cfg, snap));

  noc::SimInstance uninterrupted(cfg);
  uninterrupted.warmup();
  const noc::SimResult want = uninterrupted.measure_and_drain();

  // Dirty: run well past the snapshot at 3x the load, then restore from
  // the file.
  sim.set_injection_rate(cfg.injection_rate * 3.0);
  sim.run_cycles(800);
  noc::SimSnapshot from_disk;
  ASSERT_TRUE(read_snapshot_file(p, cfg, from_disk));
  sim.restore(from_disk);
  sim.set_injection_rate(cfg.injection_rate);

  const noc::SimResult got = sim.measure_and_drain();
  EXPECT_EQ(got.avg_packet_latency, want.avg_packet_latency);
  EXPECT_EQ(got.packets_measured, want.packets_measured);
  EXPECT_EQ(got.accepted_flit_rate, want.accepted_flit_rate);
}

// Every malformed-file class rejects with a readable reason; none crash.
TEST_F(SnapshotIoTest, RejectsMalformedFiles) {
  const noc::SimConfig cfg = small_config();
  noc::SimInstance sim(cfg);
  sim.warmup();
  noc::SimSnapshot snap;
  sim.snapshot(snap);
  const std::string good = path("good.nsnp");
  ASSERT_TRUE(write_snapshot_file(good, cfg, snap));
  const std::vector<std::uint8_t> bytes = slurp(good);
  noc::SimSnapshot out;

  {  // Truncated below the header.
    std::vector<std::uint8_t> t(bytes.begin(), bytes.begin() + 10);
    spit(path("trunc1.nsnp"), t);
    const IoStatus s = read_snapshot_file(path("trunc1.nsnp"), cfg, out);
    ASSERT_FALSE(s);
    EXPECT_NE(s.error.find("truncated"), std::string::npos) << s.error;
  }
  {  // Truncated mid-payload.
    std::vector<std::uint8_t> t(bytes.begin(), bytes.end() - 17);
    spit(path("trunc2.nsnp"), t);
    const IoStatus s = read_snapshot_file(path("trunc2.nsnp"), cfg, out);
    ASSERT_FALSE(s);
    EXPECT_NE(s.error.find("truncated"), std::string::npos) << s.error;
  }
  {  // Empty file.
    spit(path("empty.nsnp"), {});
    const IoStatus s = read_snapshot_file(path("empty.nsnp"), cfg, out);
    ASSERT_FALSE(s);
    EXPECT_NE(s.error.find("truncated"), std::string::npos) << s.error;
  }
  {  // Foreign magic.
    std::vector<std::uint8_t> t = bytes;
    t[0] ^= 0xFF;
    spit(path("magic.nsnp"), t);
    const IoStatus s = read_snapshot_file(path("magic.nsnp"), cfg, out);
    ASSERT_FALSE(s);
    EXPECT_NE(s.error.find("magic"), std::string::npos) << s.error;
  }
  {  // Future format version (bytes 4..5).
    std::vector<std::uint8_t> t = bytes;
    t[4] = 0x7F;
    spit(path("version.nsnp"), t);
    const IoStatus s = read_snapshot_file(path("version.nsnp"), cfg, out);
    ASSERT_FALSE(s);
    EXPECT_NE(s.error.find("version"), std::string::npos) << s.error;
  }
  {  // Config mismatch: same file, different expected config.
    noc::SimConfig other = cfg;
    other.seed += 1;
    const IoStatus s = read_snapshot_file(good, other, out);
    ASSERT_FALSE(s);
    EXPECT_NE(s.error.find("fingerprint"), std::string::npos) << s.error;
  }
  {  // Flipped payload byte.
    std::vector<std::uint8_t> t = bytes;
    t[kSnapshotHeaderSize + t.size() / 2] ^= 0x01;
    spit(path("corrupt.nsnp"), t);
    const IoStatus s = read_snapshot_file(path("corrupt.nsnp"), cfg, out);
    ASSERT_FALSE(s);
    EXPECT_NE(s.error.find("hash"), std::string::npos) << s.error;
  }
  {  // One byte appended: the size check names both sizes.
    std::vector<std::uint8_t> t = bytes;
    t.push_back(0);
    spit(path("oversize.nsnp"), t);
    const IoStatus s = read_snapshot_file(path("oversize.nsnp"), cfg, out);
    ASSERT_FALSE(s);
    EXPECT_NE(s.error.find("header promises " + std::to_string(bytes.size()) +
                           " bytes, file has " + std::to_string(t.size())),
              std::string::npos)
        << s.error;
  }
  {  // Missing file.
    const IoStatus s = read_snapshot_file(path("absent.nsnp"), cfg, out);
    ASSERT_FALSE(s);
    EXPECT_NE(s.error.find(path("absent.nsnp")), std::string::npos) << s.error;
  }
  {  // A directory where the file should be: a failed read, not an abort.
    ASSERT_EQ(::mkdir(path("dir.nsnp").c_str(), 0755), 0);
    const IoStatus s = read_snapshot_file(path("dir.nsnp"), cfg, out);
    ASSERT_FALSE(s);
    EXPECT_NE(s.error.find(path("dir.nsnp")), std::string::npos) << s.error;
  }

  // The good file still reads after all of the above.
  EXPECT_TRUE(read_snapshot_file(good, cfg, out));
}

// Header fuzz: every single-bit flip of the 40 header bytes, and every
// truncation of the whole file, is rejected with a reason -- never accepted
// and never an abort. A flipped reserved byte is named as such.
TEST_F(SnapshotIoTest, EveryHeaderBitFlipAndTruncationIsRejected) {
  const noc::SimConfig cfg = small_config();
  noc::SimInstance sim(cfg);
  sim.warmup();
  noc::SimSnapshot snap;
  sim.snapshot(snap);
  std::vector<std::uint8_t> bytes;
  encode_snapshot(cfg, snap, bytes);
  const std::uint64_t fp = config_fingerprint(cfg);
  noc::SimSnapshot out;

  constexpr std::size_t kReservedOffset = 7;
  for (std::size_t bit = 0; bit < kSnapshotHeaderSize * 8; ++bit) {
    std::vector<std::uint8_t> t = bytes;
    t[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const IoStatus s = decode_snapshot(t.data(), t.size(), fp, out);
    ASSERT_FALSE(s) << "header bit " << bit;
    EXPECT_FALSE(s.error.empty());
    if (bit / 8 == kReservedOffset) {
      EXPECT_NE(s.error.find("reserved"), std::string::npos) << s.error;
    }
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const IoStatus s = decode_snapshot(bytes.data(), len, fp, out);
    ASSERT_FALSE(s) << "truncated to " << len << " bytes";
    EXPECT_NE(s.error.find("truncated"), std::string::npos) << s.error;
  }
  EXPECT_TRUE(decode_snapshot(bytes.data(), bytes.size(), fp, out));
}

/// Re-frames `snap` (fresh header sizes and payload hash), so the disk
/// layer accepts it, and decodes it back for a restore.
noc::SimSnapshot reframed(const noc::SimConfig& cfg,
                          const noc::SimSnapshot& snap) {
  std::vector<std::uint8_t> bytes;
  encode_snapshot(cfg, snap, bytes);
  noc::SimSnapshot out;
  const IoStatus s =
      decode_snapshot(bytes.data(), bytes.size(), config_fingerprint(cfg), out);
  EXPECT_TRUE(s) << s.error;
  return out;
}

// A payload whose framing is valid but whose stream is not -- one byte
// short, one byte long, or a router section tag overwritten -- passes the
// disk checks and must then abort in the state archive's own checks (read
// bounds, fully consumed buffer, section tags), never restore quietly.
TEST(SnapshotIoDeathTest, HashValidCorruptPayloadAbortsRestore) {
  const noc::SimConfig cfg = small_config();
  noc::SimInstance sim(cfg);
  sim.warmup();
  noc::SimSnapshot snap;
  sim.snapshot(snap);
  noc::SimInstance target(cfg);

  noc::SimSnapshot bad = snap;
  bad.network.bytes.pop_back();
  bad = reframed(cfg, bad);
  EXPECT_DEATH(target.restore(bad), "check failed: n <= remaining\\(\\)");

  bad = snap;
  bad.driver.pop_back();
  bad = reframed(cfg, bad);
  EXPECT_DEATH(target.restore(bad), "check failed: n <= remaining\\(\\)");

  bad = snap;
  bad.network.bytes.push_back(0);
  bad = reframed(cfg, bad);
  EXPECT_DEATH(target.restore(bad), "check failed: ar.remaining\\(\\) == 0");

  bad = snap;
  bad.driver.push_back(0);
  bad = reframed(cfg, bad);
  EXPECT_DEATH(target.restore(bad), "check failed: ar.remaining\\(\\) == 0");

  // The router section tag 0x40517E40, little-endian. It occurs once per
  // router and nowhere else in this snapshot, so the first hit is router
  // 0's tag.
  const std::uint8_t tag[4] = {0x40, 0x7E, 0x51, 0x40};
  std::vector<std::size_t> hits;
  const std::vector<std::uint8_t>& net = snap.network.bytes;
  for (std::size_t i = 0; i + 4 <= net.size(); ++i) {
    if (std::equal(tag, tag + 4, net.begin() + static_cast<long>(i))) {
      hits.push_back(i);
    }
  }
  ASSERT_EQ(hits.size(), sim.network().topology().num_routers());
  bad = snap;
  bad.network.bytes[hits.front()] ^= 0xFF;
  bad = reframed(cfg, bad);
  EXPECT_DEATH(target.restore(bad), "check failed: stored == value");

  // The untouched snapshot still restores.
  target.restore(reframed(cfg, snap));
}

// A hash-valid snapshot whose round-robin pointer equals its arbiter's
// width passes the disk checks and must abort in the arbiter bank's load
// check: no save ever writes such a pointer.
TEST(SnapshotIoDeathTest, HashValidPointerAtWidthAbortsRestore) {
  noc::SimConfig cfg = small_config();
  cfg.spec = SpecMode::kNonSpeculative;
  noc::SimInstance sim(cfg);
  sim.warmup();
  noc::SimSnapshot snap;
  sim.snapshot(snap);
  noc::SimInstance target(cfg);

  // A non-speculative sep_if/rr router section ends with its switch
  // allocator's P-wide output arbiters, so the eight bytes before router
  // 1's section tag are router 0's last output-arbiter pointer.
  const std::uint8_t tag[4] = {0x40, 0x7E, 0x51, 0x40};
  const std::vector<std::uint8_t>& net = snap.network.bytes;
  const auto first = std::search(net.begin(), net.end(), tag, tag + 4);
  const auto second = std::search(first + 1, net.end(), tag, tag + 4);
  ASSERT_TRUE(second != net.end());
  const auto at = static_cast<std::size_t>(second - net.begin()) - 8;
  const std::uint64_t width = sim.network().topology().ports();
  std::uint64_t ptr = 0;
  std::memcpy(&ptr, net.data() + at, sizeof ptr);
  ASSERT_LT(ptr, width);

  noc::SimSnapshot bad = snap;
  std::memcpy(bad.network.bytes.data() + at, &width, sizeof width);
  EXPECT_DEATH(target.restore(reframed(cfg, bad)),
               "check failed: ptr < width_");

  // The largest legal pointer still restores.
  const std::uint64_t last = width - 1;
  std::memcpy(bad.network.bytes.data() + at, &last, sizeof last);
  target.restore(reframed(cfg, bad));
}

// The key and fingerprint buffers are reserved at this size.
TEST_F(SnapshotIoTest, CanonicalConfigSizeMatchesEncoding) {
  std::vector<std::uint8_t> bytes;
  canonical_config_bytes(small_config(), bytes);
  EXPECT_EQ(bytes.size(), kCanonicalConfigSize);
}

// The fingerprint must move when ANY config field moves -- that is the
// whole guarantee that a snapshot can only restore into the config that
// wrote it.
TEST_F(SnapshotIoTest, FingerprintSensitiveToEveryFieldKind) {
  const noc::SimConfig base = small_config();
  const std::uint64_t fp = config_fingerprint(base);

  noc::SimConfig c = base;
  c.topology = noc::TopologyKind::kFbfly4x4;
  EXPECT_NE(config_fingerprint(c), fp);

  c = base;
  c.sw_alloc = AllocatorKind::kWavefront;
  EXPECT_NE(config_fingerprint(c), fp);

  c = base;
  c.injection_rate += 1e-9;  // doubles hash by exact bits
  EXPECT_NE(config_fingerprint(c), fp);

  c = base;
  c.warmup_cycles += 1;
  EXPECT_NE(config_fingerprint(c), fp);

  c = base;
  c.seed += 1;
  EXPECT_NE(config_fingerprint(c), fp);

  c = base;
  c.check_invariants = !c.check_invariants;
  EXPECT_NE(config_fingerprint(c), fp);

  // And it must NOT move for an identical config (stability is what makes
  // snapshots shareable across processes).
  EXPECT_EQ(config_fingerprint(base), fp);
}

}  // namespace
}  // namespace nocalloc::sweep
