#include "quality/quality.hpp"

#include <algorithm>
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
  const std::size_t c = partition.vcs_per_class();
  NOCALLOC_CHECK(vcs == partition.total_vcs());

  QualityResult result;
  result.rate = rate;

  std::vector<VcRequest> req(total);
  std::vector<int> grant;
  // Per input VC: its message class and the legal successor classes of its
  // resource class, hoisted out of the trial loop (successors() returns a
  // fresh vector).
  std::vector<std::size_t> message_class(vcs);
  std::vector<std::vector<std::size_t>> successors(vcs);
  for (std::size_t vc = 0; vc < vcs; ++vc) {
    message_class[vc] = partition.message_class_of(vc);
    successors[vc] = partition.successors(partition.resource_class_of(vc));
    NOCALLOC_CHECK(!successors[vc].empty());
  }

  // Maximum-size reference in closed form. Every valid request asks for all
  // C VCs of one class (m, r2) at one output port, and distinct (port, class)
  // groups own disjoint output VCs. The request graph is therefore a
  // disjoint union of complete bipartite blocks K(n_g, C), one per group g
  // with n_g requesters, and its maximum matching has size
  // sum_g min(n_g, C). `requesters[g]` tallies n_g; a requester adds one to
  // the sum while its group still has fewer than C. Hopcroft-Karp on the
  // expanded matrix (the kMaximumSize family) is this count's test oracle.
  std::vector<std::size_t> requesters(total / c);

  for (std::size_t t = 0; t < trials; ++t) {
    std::fill(requesters.begin(), requesters.end(), 0);
    for (std::size_t i = 0; i < total; ++i) {
      VcRequest& r = req[i];
      r.valid = rng.next_bool(rate);
      if (!r.valid) continue;
      const std::size_t port = rng.next_below(ports);
      r.out_port = static_cast<int>(port);
      // The requesting input VC's own class determines the legal target
      // classes; pick one legal successor uniformly (mirrors a routing
      // function having fixed one class for the next hop).
      const std::size_t vc = i % vcs;
      const auto& succ = successors[vc];
      const std::size_t r2 = succ[rng.next_below(succ.size())];
      const std::size_t base = partition.class_base(message_class[vc], r2);
      r.vc_mask.assign(vcs, 0);
      std::fill_n(r.vc_mask.begin() + static_cast<std::ptrdiff_t>(base), c, 1);
      if (requesters[(port * vcs + base) / c]++ < c) ++result.max_grants;
    }

    alloc.allocate(req, grant);
    for (int g : grant) {
      if (g >= 0) ++result.grants;
    }
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
