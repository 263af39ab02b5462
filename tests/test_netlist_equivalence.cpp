// Functional equivalence between the generated gate-level netlists and the
// behavioural allocator models -- the reproduction's substitute for RTL
// simulation of the paper's Verilog.
//
// Stimulus is driven in 64-wide batches through the compiled bit-parallel
// engine (hw/netlist_program.hpp): lane v of every word is an independent
// request stream with its own behavioural reference instance. Every batch
// additionally runs the same words through a second engine pinned to the
// scalar NetlistSimulator oracle (set_reference_path), so each design point
// gets a full packed-vs-scalar differential check -- outputs AND flop state
// -- on top of the behavioural equivalence.
#include <gtest/gtest.h>

#include <memory>

#include "alloc/wavefront_allocator.hpp"
#include "arbiter/arbiter_bank.hpp"
#include "common/rng.hpp"
#include "hw/arbiter_gen.hpp"
#include "hw/netlist_program.hpp"
#include "hw/sa_gen.hpp"
#include "hw/vc_alloc_gen.hpp"
#include "hw/wavefront_gen.hpp"
#include "sa/sa_separable.hpp"
#include "sa/speculative_switch_allocator.hpp"
#include "spec_dense.hpp"
#include "vc/vc_allocator.hpp"

namespace nocalloc::hw {
namespace {

constexpr std::size_t kLanes = BatchNetlistSimulator::kLanes;

/// Differential harness: the same lane words go through the compiled fast
/// path and the scalar-oracle reference path; outputs and flop words must be
/// bit-identical before the behavioural comparison even starts.
class BatchDiff {
 public:
  explicit BatchDiff(const Netlist& nl)
      : program_(nl), fast_(program_), ref_(program_) {
    ref_.set_reference_path(true);
    out_fast_.resize(program_.num_outputs());
    out_ref_.resize(program_.num_outputs());
  }

  std::size_t num_inputs() const { return program_.num_inputs(); }

  const std::vector<std::uint64_t>& evaluate(
      const std::vector<std::uint64_t>& in) {
    return run(in, /*clock_edge=*/false);
  }
  const std::vector<std::uint64_t>& step(const std::vector<std::uint64_t>& in) {
    return run(in, /*clock_edge=*/true);
  }

 private:
  const std::vector<std::uint64_t>& run(const std::vector<std::uint64_t>& in,
                                        bool clock_edge) {
    if (clock_edge) {
      fast_.step(in, out_fast_);
      ref_.step(in, out_ref_);
    } else {
      fast_.evaluate(in, out_fast_);
      ref_.evaluate(in, out_ref_);
    }
    EXPECT_EQ(out_fast_, out_ref_) << "packed vs scalar outputs diverge";
    for (std::size_t f = 0; f < program_.num_flops(); ++f) {
      EXPECT_EQ(fast_.flop_word(f), ref_.flop_word(f))
          << "packed vs scalar flop state diverges at flop " << f;
    }
    return out_fast_;
  }

  NetlistProgram program_;
  BatchNetlistSimulator fast_, ref_;
  std::vector<std::uint64_t> out_fast_, out_ref_;
};

// ---------------------------------------------------------------------------
// Arbiters: multi-cycle equivalence including priority updates; each lane is
// an independent request stream with its own behavioural arbiter.

struct ArbiterEquivParam {
  ArbiterKind kind;
  std::size_t width;
  std::size_t groups;
};

class ArbiterEquivalenceTest
    : public ::testing::TestWithParam<ArbiterEquivParam> {};

TEST_P(ArbiterEquivalenceTest, MatchesBehaviouralModelOverManyCycles) {
  const ArbiterEquivParam& p = GetParam();
  const std::size_t n = p.width;

  Netlist nl;
  const std::vector<NodeId> req_nodes = nl.inputs(n);
  const NodeId enable = nl.input();
  ArbiterCircuit circuit =
      p.groups == 1 ? gen_arbiter(nl, p.kind, req_nodes, enable)
                    : gen_tree_arbiter(nl, p.kind, req_nodes, p.groups, enable);
  for (NodeId g : circuit.gnt) nl.mark_output(g);
  BatchDiff hw(nl);

  // The behavioural model: arbiter `lane` of a flat bank per lane, or tree
  // `lane` of a top/local bank pair, and one RNG stream per lane.
  ArbiterBank flat(p.kind, kLanes, n);
  ArbiterBank top(p.kind, kLanes, p.groups);
  ArbiterBank local(p.kind, kLanes * p.groups, n / p.groups);
  std::vector<Rng> rng;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    rng.emplace_back(0xE0 + p.width * kLanes + lane);
  }

  std::vector<std::vector<bool>> rows(kLanes, std::vector<bool>(n + 1));
  std::vector<ReqVector> req(kLanes, ReqVector(n, 0));
  for (int cycle = 0; cycle < 48; ++cycle) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      bool any = false;
      for (std::size_t i = 0; i < n; ++i) {
        const bool bit = rng[lane].next_bool(0.45);
        req[lane][i] = bit ? 1 : 0;
        rows[lane][i] = bit;
        any = any || bit;
      }
      // The enable is asserted exactly when a grant exists (the on-success
      // rule; in these single-arbiter tests every grant is "successful").
      rows[lane][n] = any;
    }
    const std::vector<std::uint64_t>& gnt = hw.step(pack_lanes(rows, n + 1));
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const std::uint64_t bit = 1ull << lane;
      int winner = -1;
      for (std::size_t i = 0; i < n; ++i) {
        if (gnt[i] & bit) {
          ASSERT_EQ(winner, -1) << "multiple grants, lane " << lane;
          winner = static_cast<int>(i);
        }
      }
      const int expected = p.groups == 1
                               ? flat.pick_bytes(lane, req[lane])
                               : tree_pick_bytes(top, local, lane, req[lane]);
      ASSERT_EQ(winner, expected) << "cycle " << cycle << " lane " << lane;
      if (expected < 0) continue;
      if (p.groups == 1) {
        flat.update(lane, expected);
      } else {
        tree_update(top, local, lane, static_cast<std::size_t>(expected));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ArbiterEquivalenceTest,
    ::testing::Values(ArbiterEquivParam{ArbiterKind::kRoundRobin, 2, 1},
                      ArbiterEquivParam{ArbiterKind::kRoundRobin, 5, 1},
                      ArbiterEquivParam{ArbiterKind::kRoundRobin, 8, 1},
                      ArbiterEquivParam{ArbiterKind::kRoundRobin, 13, 1},
                      ArbiterEquivParam{ArbiterKind::kMatrix, 2, 1},
                      ArbiterEquivParam{ArbiterKind::kMatrix, 5, 1},
                      ArbiterEquivParam{ArbiterKind::kMatrix, 8, 1},
                      ArbiterEquivParam{ArbiterKind::kRoundRobin, 10, 5},
                      ArbiterEquivParam{ArbiterKind::kMatrix, 12, 4}),
    [](const ::testing::TestParamInfo<ArbiterEquivParam>& info) {
      return to_string(info.param.kind) + "_w" +
             std::to_string(info.param.width) + "_g" +
             std::to_string(info.param.groups);
    });

// ---------------------------------------------------------------------------
// Wavefront block: multi-cycle equivalence including diagonal rotation.

TEST(WavefrontEquivalence, MatchesBehaviouralModelOverManyCycles) {
  constexpr std::size_t kN = 6;
  Netlist nl;
  std::vector<std::vector<NodeId>> req(kN, std::vector<NodeId>(kN));
  for (auto& row : req) {
    for (auto& r : row) r = nl.input();
  }
  WavefrontCircuit circuit = gen_wavefront(nl, req);
  for (const auto& row : circuit.gnt) {
    for (NodeId g : row) nl.mark_output(g);
  }
  BatchDiff hw(nl);

  std::vector<WavefrontAllocator> sw(kLanes, WavefrontAllocator(kN, kN));
  std::vector<Rng> rng;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    rng.emplace_back(77 * kLanes + lane);
  }

  std::vector<std::vector<bool>> rows(kLanes, std::vector<bool>(kN * kN));
  std::vector<BitMatrix> reqs(kLanes, BitMatrix(kN, kN));
  BitMatrix expected;
  for (int cycle = 0; cycle < 40; ++cycle) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t j = 0; j < kN; ++j) {
          const bool bit = rng[lane].next_bool(0.4);
          reqs[lane].set(i, j, bit);
          rows[lane][i * kN + j] = bit;
        }
      }
    }
    const std::vector<std::uint64_t>& gnt = hw.step(pack_lanes(rows, kN * kN));
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const std::uint64_t bit = 1ull << lane;
      sw[lane].allocate(reqs[lane], expected);
      for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t j = 0; j < kN; ++j) {
          ASSERT_EQ((gnt[i * kN + j] & bit) != 0, expected.get(i, j))
              << "cycle " << cycle << " lane " << lane << " cell (" << i << ","
              << j << ")";
        }
      }
    }
  }
}

TEST(WavefrontEquivalence, SparseBlockMatchesWithTrimmedTiles) {
  // Requests outside a checkerboard are statically absent on the netlist
  // side and zero on the behavioural side; grants must still agree.
  constexpr std::size_t kN = 5;
  Netlist nl;
  std::vector<std::vector<NodeId>> req(kN, std::vector<NodeId>(kN, kNoNode));
  std::size_t present = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      if ((i + j) % 2 == 0) {
        req[i][j] = nl.input();
        ++present;
      }
    }
  }
  WavefrontCircuit circuit = gen_wavefront(nl, req);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      if (circuit.gnt[i][j] != kNoNode) nl.mark_output(circuit.gnt[i][j]);
    }
  }
  BatchDiff hw(nl);

  std::vector<WavefrontAllocator> sw(kLanes, WavefrontAllocator(kN, kN));
  std::vector<Rng> rng;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    rng.emplace_back(78 * kLanes + lane);
  }

  std::vector<std::vector<bool>> rows(kLanes, std::vector<bool>(present));
  std::vector<BitMatrix> reqs(kLanes, BitMatrix(kN, kN));
  BitMatrix expected;
  for (int cycle = 0; cycle < 32; ++cycle) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      reqs[lane].clear();
      std::size_t k = 0;
      for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t j = 0; j < kN; ++j) {
          if ((i + j) % 2 != 0) continue;
          const bool bit = rng[lane].next_bool(0.5);
          reqs[lane].set(i, j, bit);
          rows[lane][k++] = bit;
        }
      }
    }
    const std::vector<std::uint64_t>& gnt = hw.step(pack_lanes(rows, present));
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const std::uint64_t bit = 1ull << lane;
      sw[lane].allocate(reqs[lane], expected);
      std::size_t out_idx = 0;
      for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t j = 0; j < kN; ++j) {
          if ((i + j) % 2 != 0) continue;
          ASSERT_EQ((gnt[out_idx++] & bit) != 0, expected.get(i, j))
              << "cycle " << cycle << " lane " << lane << " cell (" << i << ","
              << j << ")";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Switch allocators: single-cycle (fresh-state) equivalence. Enables are
// free inputs on the netlist side and stay 0, so the circuit's priority
// state never advances; each lane is compared against a fresh behavioural
// instance.

/// Packs one request block in make_request_inputs order: per port, V valid
/// bits, then per VC a P-wide destination one-hot.
void pack_sa_block(std::vector<bool>& row, std::size_t base,
                   const std::vector<SwitchRequest>& req, std::size_t ports,
                   std::size_t vcs) {
  std::size_t k = base;
  for (std::size_t p = 0; p < ports; ++p) {
    for (std::size_t v = 0; v < vcs; ++v) row[k++] = req[p * vcs + v].valid;
    for (std::size_t v = 0; v < vcs; ++v) {
      for (std::size_t o = 0; o < ports; ++o) {
        row[k++] = req[p * vcs + v].valid &&
                   req[p * vcs + v].out_port == static_cast<int>(o);
      }
    }
  }
}

std::vector<SwitchRequest> random_sa_requests(std::size_t ports,
                                              std::size_t vcs, double rate,
                                              Rng& rng) {
  std::vector<SwitchRequest> req(ports * vcs);
  for (auto& r : req) {
    r.valid = rng.next_bool(rate);
    r.out_port = r.valid ? static_cast<int>(rng.next_below(ports)) : -1;
  }
  return req;
}

struct SaEquivParam {
  AllocatorKind kind;
  std::size_t ports, vcs;
};

class SaEquivalenceTest : public ::testing::TestWithParam<SaEquivParam> {};

TEST_P(SaEquivalenceTest, NetlistMatchesBehaviouralAllocator) {
  const SaEquivParam& p = GetParam();
  SaGenConfig cfg;
  cfg.ports = p.ports;
  cfg.vcs = p.vcs;
  cfg.kind = p.kind;
  cfg.arb = ArbiterKind::kRoundRobin;
  cfg.spec = SpecMode::kNonSpeculative;
  Netlist nl;
  gen_switch_allocator(nl, cfg);
  BatchDiff hw(nl);

  Rng rng(0xAB);
  std::vector<std::vector<bool>> rows(
      kLanes, std::vector<bool>(hw.num_inputs(), false));
  std::vector<std::vector<SwitchRequest>> req(kLanes);
  std::vector<SwitchGrant> expected;
  for (int batch = 0; batch < 4; ++batch) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      req[lane] = random_sa_requests(p.ports, p.vcs, 0.45, rng);
      std::fill(rows[lane].begin(), rows[lane].end(), false);
      pack_sa_block(rows[lane], 0, req[lane], p.ports, p.vcs);
    }
    const std::vector<std::uint64_t>& out =
        hw.evaluate(pack_lanes(rows, hw.num_inputs()));

    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const std::uint64_t bit = 1ull << lane;
      // Fresh behavioural instance: initial priority state, like the
      // netlist whose enables are held low.
      auto sw = make_switch_allocator(
          {p.ports, p.vcs, p.kind, ArbiterKind::kRoundRobin});
      sw->allocate(req[lane], expected);

      // Output order: P x P crossbar matrix, then per-port winning VC.
      std::size_t k = 0;
      for (std::size_t port = 0; port < p.ports; ++port) {
        const SwitchGrant& g = expected[port];
        for (std::size_t o = 0; o < p.ports; ++o) {
          const bool expect_bit =
              g.granted() && g.out_port == static_cast<int>(o);
          ASSERT_EQ((out[k++] & bit) != 0, expect_bit)
              << "batch " << batch << " lane " << lane << " xbar (" << port
              << "," << o << ")";
        }
      }
      for (std::size_t port = 0; port < p.ports; ++port) {
        int win_vc = -1;
        for (std::size_t v = 0; v < p.vcs; ++v) {
          if (out[k++] & bit) {
            ASSERT_EQ(win_vc, -1) << "lane " << lane;
            win_vc = static_cast<int>(v);
          }
        }
        ASSERT_EQ(win_vc, expected[port].vc)
            << "batch " << batch << " lane " << lane << " port " << port;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, SaEquivalenceTest,
    ::testing::Values(
        SaEquivParam{AllocatorKind::kSeparableInputFirst, 5, 2},
        SaEquivParam{AllocatorKind::kSeparableInputFirst, 10, 4},
        SaEquivParam{AllocatorKind::kSeparableOutputFirst, 5, 2},
        SaEquivParam{AllocatorKind::kSeparableOutputFirst, 10, 4},
        SaEquivParam{AllocatorKind::kWavefront, 5, 2},
        SaEquivParam{AllocatorKind::kWavefront, 10, 4}),
    [](const ::testing::TestParamInfo<SaEquivParam>& info) {
      return to_string(info.param.kind) + "_P" +
             std::to_string(info.param.ports) + "V" +
             std::to_string(info.param.vcs);
    });

// ---------------------------------------------------------------------------
// Speculative switch allocator netlist vs behavioural wrapper.

TEST(SpecSaEquivalence, MaskedSpecGrantsMatchBehaviouralWrapper) {
  constexpr std::size_t kP = 5, kV = 2;
  for (SpecMode mode : {SpecMode::kPessimistic, SpecMode::kConservative}) {
    SaGenConfig cfg;
    cfg.ports = kP;
    cfg.vcs = kV;
    cfg.kind = AllocatorKind::kSeparableInputFirst;
    cfg.arb = ArbiterKind::kRoundRobin;
    cfg.spec = mode;
    Netlist nl;
    gen_switch_allocator(nl, cfg);
    BatchDiff hw(nl);
    const std::size_t block = kP * kV + kP * kV * kP;

    Rng rng(0xCD + static_cast<std::uint64_t>(mode));
    std::vector<std::vector<bool>> rows(
        kLanes, std::vector<bool>(hw.num_inputs(), false));
    std::vector<std::vector<SwitchRequest>> nonspec(kLanes), spec(kLanes);
    for (int batch = 0; batch < 3; ++batch) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        nonspec[lane] = random_sa_requests(kP, kV, 0.3, rng);
        spec[lane] = random_sa_requests(kP, kV, 0.3, rng);
        std::fill(rows[lane].begin(), rows[lane].end(), false);
        pack_sa_block(rows[lane], 0, nonspec[lane], kP, kV);
        pack_sa_block(rows[lane], block, spec[lane], kP, kV);
      }
      const std::vector<std::uint64_t>& out =
          hw.evaluate(pack_lanes(rows, hw.num_inputs()));

      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const std::uint64_t bit = 1ull << lane;
        SwitchAllocatorConfig base{kP, kV, cfg.kind, cfg.arb};
        SpeculativeSwitchAllocator sw(base, mode);
        std::vector<SpecSwitchGrant> expected;
        allocate_dense(sw, nonspec[lane], spec[lane], expected);

        // Output order: nonspec xbar (PxP), nonspec vc_gnt (PxV), masked
        // spec xbar (PxP), spec vc_gnt (PxV).
        std::size_t k = 0;
        for (std::size_t p = 0; p < kP; ++p) {
          for (std::size_t o = 0; o < kP; ++o) {
            const bool expect_bit =
                expected[p].nonspec.granted() &&
                expected[p].nonspec.out_port == static_cast<int>(o);
            ASSERT_EQ((out[k++] & bit) != 0, expect_bit)
                << "lane " << lane << " nonspec xbar " << p << "," << o;
          }
        }
        k += kP * kV;  // nonspec winning-VC vector checked via xbar already
        for (std::size_t p = 0; p < kP; ++p) {
          for (std::size_t o = 0; o < kP; ++o) {
            const bool expect_bit =
                expected[p].spec.granted() &&
                expected[p].spec.out_port == static_cast<int>(o);
            ASSERT_EQ((out[k++] & bit) != 0, expect_bit)
                << to_string(mode) << " lane " << lane << " spec xbar " << p
                << "," << o;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// VC allocators: single-cycle equivalence, dense and sparse.

struct VcEquivParam {
  AllocatorKind kind;
  std::size_t ports;
  std::size_t m, r, c;
  bool sparse;
};

VcPartition vc_partition(const VcEquivParam& p) {
  if (p.r == 1) return VcPartition::mesh(p.m, p.c);
  return VcPartition::fbfly(p.m, p.c);
}

class VcEquivalenceTest : public ::testing::TestWithParam<VcEquivParam> {};

TEST_P(VcEquivalenceTest, NetlistMatchesBehaviouralAllocator) {
  const VcEquivParam& p = GetParam();
  const VcPartition part = vc_partition(p);
  const std::size_t V = part.total_vcs();
  const std::size_t total = p.ports * V;

  VcAllocGenConfig cfg;
  cfg.ports = p.ports;
  cfg.partition = part;
  cfg.kind = p.kind;
  cfg.arb = ArbiterKind::kRoundRobin;
  cfg.sparse = p.sparse;
  Netlist nl;
  gen_vc_allocator(nl, cfg);
  BatchDiff hw(nl);

  // Per input VC: candidate classes in the order the generator enumerates
  // them (ascending successor classes x C). Dense candidates are all V VCs.
  auto candidates = [&](std::size_t i) {
    std::vector<std::size_t> out;
    if (p.sparse) {
      const std::size_t m = part.message_class_of(i % V);
      for (std::size_t r2 : part.successors(part.resource_class_of(i % V))) {
        const std::size_t base = part.class_base(m, r2);
        for (std::size_t c = 0; c < part.vcs_per_class(); ++c) {
          out.push_back(base + c);
        }
      }
    } else {
      for (std::size_t w = 0; w < V; ++w) out.push_back(w);
    }
    return out;
  };

  Rng rng(0xEF);
  std::vector<std::vector<bool>> rows(
      kLanes, std::vector<bool>(hw.num_inputs(), false));
  std::vector<std::vector<VcRequest>> req(kLanes);
  for (int batch = 0; batch < 2; ++batch) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      // Random legal request set (class-granular, like the router produces).
      req[lane].assign(total, VcRequest{});
      for (std::size_t i = 0; i < total; ++i) {
        if (!rng.next_bool(0.5)) continue;
        VcRequest& r = req[lane][i];
        r.valid = true;
        r.out_port = static_cast<int>(rng.next_below(p.ports));
        const std::size_t m = part.message_class_of(i % V);
        const auto succ = part.successors(part.resource_class_of(i % V));
        const std::size_t r2 = succ[rng.next_below(succ.size())];
        r.vc_mask.assign(V, 0);
        const std::size_t base = part.class_base(m, r2);
        for (std::size_t c = 0; c < part.vcs_per_class(); ++c) {
          r.vc_mask[base + c] = 1;
        }
      }

      // Pack netlist inputs: per input VC, dest one-hot then the candidate
      // mask (class-granular when sparse). Remaining inputs are enables (0).
      std::fill(rows[lane].begin(), rows[lane].end(), false);
      std::size_t k = 0;
      for (std::size_t i = 0; i < total; ++i) {
        const VcRequest& r = req[lane][i];
        for (std::size_t port = 0; port < p.ports; ++port) {
          rows[lane][k++] = r.valid && r.out_port == static_cast<int>(port);
        }
        if (p.sparse) {
          const auto succ = part.successors(part.resource_class_of(i % V));
          const std::size_t m = part.message_class_of(i % V);
          for (std::size_t s = 0; s < succ.size(); ++s) {
            rows[lane][k++] =
                r.valid && !r.vc_mask.empty() &&
                r.vc_mask[part.class_base(m, succ[s])];
          }
        } else {
          for (std::size_t w = 0; w < V; ++w) {
            rows[lane][k++] = r.valid && !r.vc_mask.empty() && r.vc_mask[w];
          }
        }
      }
    }

    const std::vector<std::uint64_t>& out =
        hw.evaluate(pack_lanes(rows, hw.num_inputs()));

    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const std::uint64_t bit = 1ull << lane;
      // Behavioural reference on fresh state.
      VcAllocatorConfig sw_cfg;
      sw_cfg.ports = p.ports;
      sw_cfg.partition = part;
      sw_cfg.kind = p.kind;
      sw_cfg.sparse = p.sparse;
      auto sw = make_vc_allocator(sw_cfg);
      std::vector<int> expected;
      sw->allocate(req[lane], expected);

      // Decode: per input VC, one output bit per candidate.
      std::size_t o = 0;
      for (std::size_t i = 0; i < total; ++i) {
        int granted = -1;
        for (std::size_t cand : candidates(i)) {
          if (out[o++] & bit) {
            ASSERT_EQ(granted, -1)
                << "double grant at input VC " << i << " lane " << lane;
            granted = static_cast<int>(cand);
          }
        }
        const int expect_vc =
            expected[i] < 0 ? -1 : expected[i] % static_cast<int>(V);
        ASSERT_EQ(granted, expect_vc)
            << "batch " << batch << " lane " << lane << " input VC " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DesignPoints, VcEquivalenceTest,
    ::testing::Values(
        VcEquivParam{AllocatorKind::kSeparableInputFirst, 5, 2, 1, 1, false},
        VcEquivParam{AllocatorKind::kSeparableInputFirst, 5, 2, 1, 2, false},
        VcEquivParam{AllocatorKind::kSeparableInputFirst, 5, 2, 1, 2, true},
        VcEquivParam{AllocatorKind::kSeparableInputFirst, 4, 2, 2, 1, true},
        VcEquivParam{AllocatorKind::kSeparableOutputFirst, 5, 2, 1, 2, false},
        VcEquivParam{AllocatorKind::kSeparableOutputFirst, 5, 2, 1, 2, true},
        VcEquivParam{AllocatorKind::kSeparableOutputFirst, 4, 2, 2, 1, true},
        VcEquivParam{AllocatorKind::kWavefront, 5, 2, 1, 1, false},
        VcEquivParam{AllocatorKind::kWavefront, 5, 2, 1, 2, true},
        VcEquivParam{AllocatorKind::kWavefront, 4, 2, 2, 1, true}),
    [](const ::testing::TestParamInfo<VcEquivParam>& info) {
      return to_string(info.param.kind) + "_P" +
             std::to_string(info.param.ports) + "_" +
             std::to_string(info.param.m) + "x" + std::to_string(info.param.r) +
             "x" + std::to_string(info.param.c) +
             (info.param.sparse ? "_sparse" : "_dense");
    });

}  // namespace
}  // namespace nocalloc::hw
