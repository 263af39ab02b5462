// Microbenchmarks of the allocator software models (minibench harness,
// Google-Benchmark-compatible output).
//
// These measure *simulation* throughput (allocations per second of the C++
// models), not hardware delay. BM_Allocator covers the generic BitMatrix
// allocators on dense 40 % request matrices: the separable allocators'
// byte-row arbiter picks (O(N^2) per call), the wavefront's sparse kernel over every set cell, and
// Hopcroft-Karp. BM_SwitchAllocator and BM_VcAllocator cover the
// router-facing switch and VC allocators through their dense allocate()
// entry point, which runs the router's kernels.
#include "bench/minibench.hpp"

#include "alloc/allocator.hpp"
#include "common/rng.hpp"
#include "sa/switch_allocator.hpp"
#include "vc/vc_allocator.hpp"

namespace nocalloc {
namespace {

BitMatrix random_matrix(std::size_t n, double density, Rng& rng) {
  BitMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.next_bool(density)) m.set(i, j);
    }
  }
  return m;
}

void BM_Allocator(benchmark::State& state, AllocatorKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto alloc = make_allocator(kind, n, n);
  Rng rng(1);
  // A rotating set of request matrices avoids measuring one lucky pattern.
  std::vector<BitMatrix> reqs;
  for (int i = 0; i < 16; ++i) reqs.push_back(random_matrix(n, 0.4, rng));
  BitMatrix gnt;
  std::size_t i = 0;
  for ([[maybe_unused]] auto _ : state) {
    alloc->allocate(reqs[i++ % reqs.size()], gnt);
    benchmark::DoNotOptimize(gnt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SwitchAllocator(benchmark::State& state, AllocatorKind kind) {
  const auto ports = static_cast<std::size_t>(state.range(0));
  const auto vcs = static_cast<std::size_t>(state.range(1));
  auto alloc = make_switch_allocator({ports, vcs, kind, ArbiterKind::kRoundRobin});
  Rng rng(2);
  std::vector<SwitchRequest> req(ports * vcs);
  for (auto& r : req) {
    r.valid = rng.next_bool(0.4);
    r.out_port = r.valid ? static_cast<int>(rng.next_below(ports)) : -1;
  }
  std::vector<SwitchGrant> gnt;
  for ([[maybe_unused]] auto _ : state) {
    alloc->allocate(req, gnt);
    benchmark::DoNotOptimize(gnt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// VC allocation through the dense API on the fbfly 2x2x4 partition (V = 16;
// the argument is P, 10 for the paper's fbfly router), with requests drawn from the Fig. 7 model at rate 0.4. The
// kernel run packs and runs the family's single-word kernel (the router's
// code); the reference run is the byte-loop oracle on the same requests.
void BM_VcAllocator(benchmark::State& state, AllocatorKind kind,
                    bool reference) {
  VcAllocatorConfig cfg;
  cfg.ports = static_cast<std::size_t>(state.range(0));
  cfg.partition = VcPartition::fbfly(2, 4);
  cfg.kind = kind;
  auto alloc = make_vc_allocator(cfg);
  alloc->set_reference_path(reference);
  const VcPartition& part = cfg.partition;
  const std::size_t vcs = part.total_vcs();
  Rng rng(3);
  std::vector<std::vector<VcRequest>> reqs(16);
  for (auto& req : reqs) {
    req.resize(cfg.ports * vcs);
    for (std::size_t i = 0; i < req.size(); ++i) {
      if (!rng.next_bool(0.4)) continue;
      VcRequest& r = req[i];
      r.valid = true;
      r.out_port = static_cast<int>(rng.next_below(cfg.ports));
      const auto succ = part.successors(part.resource_class_of(i % vcs));
      const std::size_t base =
          part.class_base(part.message_class_of(i % vcs),
                          succ[rng.next_below(succ.size())]);
      r.vc_mask.assign(vcs, 0);
      for (std::size_t c = 0; c < part.vcs_per_class(); ++c) {
        r.vc_mask[base + c] = 1;
      }
    }
  }
  std::vector<int> gnt;
  std::size_t i = 0;
  for ([[maybe_unused]] auto _ : state) {
    alloc->allocate(reqs[i++ % reqs.size()], gnt);
    benchmark::DoNotOptimize(gnt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK_CAPTURE(BM_Allocator, sep_if, AllocatorKind::kSeparableInputFirst)
    ->Arg(10)->Arg(40)->Arg(160);
BENCHMARK_CAPTURE(BM_Allocator, sep_of, AllocatorKind::kSeparableOutputFirst)
    ->Arg(10)->Arg(40)->Arg(160);
BENCHMARK_CAPTURE(BM_Allocator, wf, AllocatorKind::kWavefront)
    ->Arg(10)->Arg(40)->Arg(160);
BENCHMARK_CAPTURE(BM_Allocator, max, AllocatorKind::kMaximumSize)
    ->Arg(10)->Arg(40)->Arg(160);

BENCHMARK_CAPTURE(BM_SwitchAllocator, sep_if,
                  AllocatorKind::kSeparableInputFirst)
    ->Args({5, 2})->Args({10, 16});
BENCHMARK_CAPTURE(BM_SwitchAllocator, sep_of,
                  AllocatorKind::kSeparableOutputFirst)
    ->Args({5, 2})->Args({10, 16});
BENCHMARK_CAPTURE(BM_SwitchAllocator, wf, AllocatorKind::kWavefront)
    ->Args({5, 2})->Args({10, 16});

BENCHMARK_CAPTURE(BM_VcAllocator, sep_if,
                  AllocatorKind::kSeparableInputFirst, false)->Arg(10);
BENCHMARK_CAPTURE(BM_VcAllocator, sep_of,
                  AllocatorKind::kSeparableOutputFirst, false)->Arg(10);
BENCHMARK_CAPTURE(BM_VcAllocator, wf, AllocatorKind::kWavefront, false)
    ->Arg(10);
BENCHMARK_CAPTURE(BM_VcAllocator, sep_if_ref,
                  AllocatorKind::kSeparableInputFirst, true)->Arg(10);
BENCHMARK_CAPTURE(BM_VcAllocator, sep_of_ref,
                  AllocatorKind::kSeparableOutputFirst, true)->Arg(10);
BENCHMARK_CAPTURE(BM_VcAllocator, wf_ref, AllocatorKind::kWavefront, true)
    ->Arg(10);

}  // namespace
}  // namespace nocalloc

BENCHMARK_MAIN();
