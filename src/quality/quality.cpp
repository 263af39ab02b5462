#include "quality/quality.hpp"

#include <vector>

#include "alloc/max_size_allocator.hpp"
#include "common/bit_matrix.hpp"
#include "common/check.hpp"

namespace nocalloc::quality {

using nocalloc::BitMatrix;
using nocalloc::MaxSizeAllocator;
using nocalloc::Rng;
using nocalloc::SwitchAllocator;
using nocalloc::SwitchGrant;
using nocalloc::SwitchRequest;
using nocalloc::VcAllocator;
using nocalloc::VcPartition;
using nocalloc::VcRequest;

QualityResult measure_vc_quality(VcAllocator& alloc,
                                 const VcPartition& partition, double rate,
                                 std::size_t trials, Rng& rng) {
  const std::size_t ports = alloc.ports();
  const std::size_t vcs = alloc.vcs();
  const std::size_t total = ports * vcs;
  NOCALLOC_CHECK(vcs == partition.total_vcs());

  QualityResult result;
  result.rate = rate;

  std::vector<VcRequest> req(total);
  std::vector<int> grant;
  BitMatrix full;
  // Legal successor classes per resource class, hoisted out of the request
  // loop because successors() returns a fresh vector.
  std::vector<std::vector<std::size_t>> successors(
      partition.resource_classes());
  for (std::size_t r = 0; r < successors.size(); ++r) {
    successors[r] = partition.successors(r);
    NOCALLOC_CHECK(!successors[r].empty());
  }

  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t i = 0; i < total; ++i) {
      VcRequest& r = req[i];
      r.valid = rng.next_bool(rate);
      if (!r.valid) continue;
      r.out_port = static_cast<int>(rng.next_below(ports));
      // The requesting input VC's own class determines the legal target
      // classes; pick one legal successor uniformly (mirrors a routing
      // function having fixed one class for the next hop).
      const std::size_t vc = i % vcs;
      const std::size_t m = partition.message_class_of(vc);
      const auto& succ = successors[partition.resource_class_of(vc)];
      const std::size_t r2 = succ[rng.next_below(succ.size())];
      r.vc_mask.assign(vcs, 0);
      const std::size_t base = partition.class_base(m, r2);
      for (std::size_t c = 0; c < partition.vcs_per_class(); ++c) {
        r.vc_mask[base + c] = 1;
      }
    }

    alloc.allocate(req, grant);
    for (int g : grant) {
      if (g >= 0) ++result.grants;
    }

    // Maximum-size reference on the identical request matrix.
    full.resize(total, total);
    for (std::size_t i = 0; i < total; ++i) {
      if (!req[i].valid) continue;
      const std::size_t base = static_cast<std::size_t>(req[i].out_port) * vcs;
      for (std::size_t w = 0; w < vcs; ++w) {
        if (req[i].vc_mask[w]) full.set(i, base + w);
      }
    }
    result.max_grants += MaxSizeAllocator::max_matching_size(full);
  }
  return result;
}

QualityResult measure_sa_quality(SwitchAllocator& alloc, double rate,
                                 std::size_t trials, Rng& rng) {
  const std::size_t ports = alloc.ports();
  const std::size_t vcs = alloc.vcs();
  const std::size_t total = ports * vcs;

  QualityResult result;
  result.rate = rate;

  std::vector<SwitchRequest> req(total);
  std::vector<SwitchGrant> grant;
  BitMatrix port_req;

  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t i = 0; i < total; ++i) {
      req[i].valid = rng.next_bool(rate);
      req[i].out_port =
          req[i].valid ? static_cast<int>(rng.next_below(ports)) : -1;
    }

    alloc.allocate(req, grant);
    for (const SwitchGrant& g : grant) {
      if (g.granted()) ++result.grants;
    }

    // Maximum matching over the P x P union request matrix: the bound any
    // switch allocator (one grant per input port) can reach.
    port_req.resize(ports, ports);
    for (std::size_t p = 0; p < ports; ++p) {
      for (std::size_t v = 0; v < vcs; ++v) {
        const SwitchRequest& r = req[p * vcs + v];
        if (r.valid) port_req.set(p, static_cast<std::size_t>(r.out_port));
      }
    }
    result.max_grants += MaxSizeAllocator::max_matching_size(port_req);
  }
  return result;
}

}  // namespace nocalloc::quality
