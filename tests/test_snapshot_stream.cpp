// Pins the warm-snapshot byte stream. Every latency curve the paper's
// network figures come from is forked from, and persisted as, this stream,
// and the on-disk formats (kSnapshotFormatVersion, kResultsVersion) promise
// that it does not move. A refactor of the state codecs must therefore
// reproduce it byte for byte: the unchecked rows and the file pins were
// recorded once and are never re-recorded; a change that is meant to alter
// the stream bumps the format version instead, and adds a new table beside
// this one.
//
// Each row warms one design point for a fixed number of cycles and records
// the FNV-1a hash and length of the network and driver parts of
// SimInstance::snapshot. The rows cover every topology (mesh, fbfly with
// UGAL, torus and ring with datelines), every allocator family with both
// arbiter kinds, every speculation mode, and the invariant checker on and
// off. The remaining tests pin the config fingerprint, one curve-point key
// and the file bytes SweepCache writes for one result record and one
// snapshot.
//
// The driver part of a checked row holds the checker's check counter, so
// its driver hash also counts the route-legality checks that every checked
// SimInstance runs. The checker only observes, so a checked row's network
// part is the unchecked run's, byte for byte. The checked rows' hashes were
// re-recorded twice, each time for a change to what the checker does, not
// to the codecs: once when its counter began to count route checks, and
// once when it stopped switching the network to a schedule of its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "noc/sim.hpp"
#include "sweep/snapshot_io.hpp"
#include "sweep/sweep_cache.hpp"

namespace nocalloc {
namespace {

using noc::SimConfig;
using noc::TopologyKind;

constexpr AllocatorKind kSepIf = AllocatorKind::kSeparableInputFirst;
constexpr AllocatorKind kSepOf = AllocatorKind::kSeparableOutputFirst;
constexpr AllocatorKind kWf = AllocatorKind::kWavefront;
constexpr ArbiterKind kRr = ArbiterKind::kRoundRobin;
constexpr ArbiterKind kM = ArbiterKind::kMatrix;
constexpr SpecMode kNonspec = SpecMode::kNonSpeculative;
constexpr SpecMode kSpecGnt = SpecMode::kConservative;
constexpr SpecMode kSpecReq = SpecMode::kPessimistic;

struct StreamRow {
  const char* name;
  TopologyKind topology;
  AllocatorKind vc_alloc;
  ArbiterKind vc_arb;
  AllocatorKind sw_alloc;
  ArbiterKind sw_arb;
  SpecMode spec;
  bool check;
  // Recorded FNV-1a hash and length of the two snapshot parts.
  std::uint64_t network_hash;
  std::size_t network_size;
  std::uint64_t driver_hash;
  std::size_t driver_size;
};

SimConfig row_config(const StreamRow& row) {
  SimConfig cfg;
  cfg.topology = row.topology;
  cfg.vcs_per_class = 2;
  cfg.vc_alloc = row.vc_alloc;
  cfg.vc_arb = row.vc_arb;
  cfg.sw_alloc = row.sw_alloc;
  cfg.sw_arb = row.sw_arb;
  cfg.spec = row.spec;
  cfg.check_invariants = row.check;
  cfg.injection_rate = 0.15;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 300;
  cfg.seed = 0x57AB1E;
  return cfg;
}

std::uint64_t hash_of(const std::vector<std::uint8_t>& bytes) {
  return sweep::fnv1a(bytes.data(), bytes.size());
}

const StreamRow kRows[] = {
    {"mesh_sepif_rr_specreq", TopologyKind::kMesh8x8, kSepIf, kRr, kSepIf,
     kRr, kSpecReq, false,
     0xFEF8E29E89776CBDull, 182740, 0x55DCBE1B25743C46ull, 45},
    {"mesh_sepif_rr_specreq_checked", TopologyKind::kMesh8x8, kSepIf, kRr,
     kSepIf, kRr, kSpecReq, true,
     0xFEF8E29E89776CBDull, 182740, 0x6A847B03A7EE2633ull, 45},
    {"mesh_sepof_m_nonspec", TopologyKind::kMesh8x8, kSepOf, kM, kSepOf, kM,
     kNonspec, false,
     0x9F270428DE21FAB7ull, 499546, 0x860B7F1F5D9EF035ull, 45},
    {"mesh_wf_rr_specgnt_checked", TopologyKind::kMesh8x8, kWf, kRr, kWf, kRr,
     kSpecGnt, true,
     0xF9A5DF305193A6C1ull, 128546, 0x988483C88DF768C2ull, 45},
    {"mesh_wf_m_specreq", TopologyKind::kMesh8x8, kWf, kM, kWf, kM, kSpecReq,
     false,
     0xB3D44CCBBD4E5671ull, 128534, 0x8F54432442E70B08ull, 45},
    {"fbfly_sepif_m_specgnt", TopologyKind::kFbfly4x4, kSepIf, kM, kSepIf, kM,
     kSpecGnt, false,
     0x327B2DEB6FBDA4DFull, 1270940, 0x64AC521A215D6F4Dull, 45},
    {"fbfly_sepof_rr_nonspec_checked", TopologyKind::kFbfly4x4, kSepOf, kRr,
     kSepOf, kRr, kNonspec, true,
     0xD61FCE81A6E33C3Full, 218714, 0xDE6BD0FE7E064BC5ull, 45},
    {"fbfly_wf_m_specreq", TopologyKind::kFbfly4x4, kWf, kM, kWf, kM, kSpecReq,
     false,
     0x78EE1E4456E048EDull, 118860, 0x4C95E919CA640938ull, 45},
    {"fbfly_wf_rr_nonspec", TopologyKind::kFbfly4x4, kWf, kRr, kWf, kRr,
     kNonspec, false,
     0x3A85E76F3C9A3E3Cull, 106272, 0x0265392D6CF8B114ull, 45},
    {"torus_sepif_rr_specreq", TopologyKind::kTorus8x8, kSepIf, kRr, kSepIf,
     kRr, kSpecReq, false,
     0x90CB671F04D3E6E3ull, 534390, 0x62D36D6F13027763ull, 45},
    {"torus_wf_m_specgnt_checked", TopologyKind::kTorus8x8, kWf, kM, kWf, kM,
     kSpecGnt, true,
     0xF973D142F749E13Full, 264894, 0x1F0EC08F8C450574ull, 45},
    {"torus_sepof_m_nonspec", TopologyKind::kTorus8x8, kSepOf, kM, kSepOf, kM,
     kNonspec, false,
     0x7C6BE64CE8B39E08ull, 4721200, 0x55DCBE1B25743C46ull, 45},
    {"ring_sepof_m_nonspec", TopologyKind::kRing16, kSepOf, kM, kSepOf, kM,
     kNonspec, false,
     0xAA96BAB9133D5E28ull, 174230, 0x7886C59038CF53B4ull, 45},
    {"ring_sepif_rr_specreq_checked", TopologyKind::kRing16, kSepIf, kRr,
     kSepIf, kRr, kSpecReq, true,
     0x5A7818E27B7E2221ull, 62810, 0x661EC1D939751021ull, 45},
    {"ring_wf_rr_specgnt", TopologyKind::kRing16, kWf, kRr, kWf, kRr, kSpecGnt,
     false,
     0x3893FAC53E1EEDECull, 48728, 0x9192F18476EC58D9ull, 45},
};

TEST(SnapshotStream, WarmSnapshotBytesArePinned) {
  for (const StreamRow& row : kRows) {
    SCOPED_TRACE(row.name);
    noc::SimInstance sim(row_config(row));
    sim.warmup();
    noc::SimSnapshot snap;
    sim.snapshot(snap);
    const std::uint64_t network_hash = hash_of(snap.network.bytes);
    const std::uint64_t driver_hash = hash_of(snap.driver);
    EXPECT_EQ(network_hash, row.network_hash);
    EXPECT_EQ(snap.network.bytes.size(), row.network_size);
    EXPECT_EQ(driver_hash, row.driver_hash);
    EXPECT_EQ(snap.driver.size(), row.driver_size);
  }
}

TEST(SnapshotStream, CheckedRowsHoldUncheckedNetworkBytes) {
  for (const StreamRow& row : kRows) {
    if (!row.check) continue;
    SCOPED_TRACE(row.name);
    SimConfig cfg = row_config(row);
    noc::SimSnapshot snaps[2];
    for (const bool check : {false, true}) {
      cfg.check_invariants = check;
      noc::SimInstance sim(cfg);
      sim.warmup();
      sim.snapshot(snaps[check ? 1 : 0]);
    }
    EXPECT_TRUE(snaps[0].network.bytes == snaps[1].network.bytes);
  }
}

TEST(SnapshotStream, DefaultConfigFingerprintIsPinned) {
  EXPECT_EQ(sweep::config_fingerprint(SimConfig{}), 0x0665D05AF348CB92ull);
}

// A curve-point key names the record file of every warm-fork point the
// network figures are assembled from; recorded once, like the file pins
// below, so that existing cache directories keep hitting.
TEST(SnapshotStream, CurvePointKeyIsPinned) {
  EXPECT_EQ(sweep::SweepCache::curve_point_key(row_config(kRows[7]), 0.05,
                                               1000),
            0xF661DABA8A3FC08Bull);
}

/// Reads a whole file; empty when it cannot be opened.
std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  int c = 0;
  while ((c = std::fgetc(f)) != EOF) {
    bytes.push_back(static_cast<std::uint8_t>(c));
  }
  std::fclose(f);
  return bytes;
}

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string fresh_dir() {
  std::string tmpl = ::testing::TempDir() + "snapstream_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(::mkdtemp(buf.data()), nullptr);
  return buf.data();
}

TEST(SnapshotStream, CacheFileBytesArePinned) {
  const std::string dir = fresh_dir();
  const sweep::SweepCache cache(dir);

  // A result record with a distinct value in every field.
  noc::SimResult result;
  result.avg_packet_latency = 31.25;
  result.avg_network_latency = 17.5;
  result.p99_packet_latency = 96.0;
  result.packets_measured = 12345;
  result.offered_flit_rate = 0.15;
  result.accepted_flit_rate = 0.1375;
  result.saturated = true;
  result.spec_grants_used = 777;
  result.misspeculations = 55;
  result.ugal_nonminimal_fraction = 0.0625;
  result.cycles_simulated = 900;
  result.router_steps_total = 57600;
  result.router_steps_skipped = 4321;
  result.arena_high_water = 640;
  const SimConfig cfg = row_config(kRows[5]);
  // The record's key is a literal, the one its pinned bytes were recorded
  // under (they echo it); the key derivation has its own pin above.
  const std::uint64_t key = 0xDB7ABE520AF70B51ull;
  cache.store_result(key, result);
  const std::vector<std::uint8_t> nres =
      file_bytes(dir + "/res-" + hex16(key) + ".nres");
  EXPECT_EQ(hash_of(nres), 0x61771180EE914438ull);
  EXPECT_EQ(nres.size(), 144u);

  noc::SimInstance sim(cfg);
  sim.warmup();
  noc::SimSnapshot snap;
  sim.snapshot(snap);
  cache.store_snapshot(cfg, snap);
  const std::vector<std::uint8_t> nsnp = file_bytes(
      dir + "/snap-" + hex16(sweep::config_fingerprint(cfg)) + ".nsnp");
  EXPECT_EQ(hash_of(nsnp), 0x2676BD0E9564A578ull);
  EXPECT_EQ(nsnp.size(), 1271025u);
}

}  // namespace
}  // namespace nocalloc
