#include "quality/quality.hpp"

#include <algorithm>
#include <vector>

#include "alloc/max_size_allocator.hpp"
#include "common/bit_matrix.hpp"
#include "common/check.hpp"

namespace nocalloc::quality {

QualityResult measure_vc_quality(VcAllocator& alloc,
                                 const VcPartition& partition, double rate,
                                 std::size_t trials, Rng& rng) {
  const std::size_t ports = alloc.ports();
  const std::size_t vcs = alloc.vcs();
  const std::size_t total = ports * vcs;
  const std::size_t c = partition.vcs_per_class();
  NOCALLOC_CHECK(vcs == partition.total_vcs());
  const std::size_t classes = vcs / c;  // (m, r) classes per output port
  const bits::Word class_mask = bits::low_mask(c);

  QualityResult result;
  result.rate = rate;

  std::vector<FastVcRequest> req;
  req.reserve(total);
  std::vector<int> grant(total, -1);
  // Per input VC: the legal target classes (its message class paired with
  // each successor of its resource class), as class indices within an output
  // port, hoisted out of the trial loop. Class k owns VCs [k * C, k * C + C).
  std::vector<std::vector<std::uint32_t>> targets(vcs);
  for (std::size_t vc = 0; vc < vcs; ++vc) {
    const std::size_t m = partition.message_class_of(vc);
    const std::size_t r = partition.resource_class_of(vc);
    for (std::size_t r2 : partition.successors(r)) {
      targets[vc].push_back(
          static_cast<std::uint32_t>(partition.class_base(m, r2) / c));
    }
    NOCALLOC_CHECK(!targets[vc].empty());
  }

  // Maximum-size reference in closed form. Every valid request asks for all
  // C VCs of one class at one output port, and distinct (port, class)
  // groups own disjoint output VCs. The request graph is therefore a
  // disjoint union of complete bipartite blocks K(n_g, C), one per group g
  // with n_g requesters, and its maximum matching has size
  // sum_g min(n_g, C). `requesters[g]` tallies n_g; a requester adds one to
  // the sum while its group still has fewer than C. Hopcroft-Karp on the
  // expanded matrix (the kMaximumSize family) is this count's test oracle.
  std::vector<std::size_t> requesters(ports * classes);

  for (std::size_t t = 0; t < trials; ++t) {
    std::fill(requesters.begin(), requesters.end(), 0);
    req.clear();
    for (std::size_t in_port = 0; in_port < ports; ++in_port) {
      for (std::size_t vc = 0; vc < vcs; ++vc) {
        if (!rng.next_bool(rate)) continue;
        const std::size_t port = rng.next_below(ports);
        // The requesting input VC's own class determines the legal target
        // classes; pick one uniformly (mirrors a routing function having
        // fixed one class for the next hop).
        const auto& tgt = targets[vc];
        const std::size_t k = tgt[rng.next_below(tgt.size())];
        req.push_back({static_cast<std::uint32_t>(in_port * vcs + vc),
                       static_cast<std::uint32_t>(port),
                       class_mask << (k * c)});
        if (requesters[port * classes + k]++ < c) ++result.max_grants;
      }
    }

    alloc.allocate_sparse(req.data(), req.size(), grant);
    for (const FastVcRequest& r : req) {
      result.grants += grant[r.input] >= 0 ? 1 : 0;
      grant[r.input] = -1;  // allocate_sparse wants all -1 on entry
    }
  }
  return result;
}

QualityResult measure_sa_quality(SwitchAllocator& alloc, double rate,
                                 std::size_t trials, Rng& rng) {
  const std::size_t ports = alloc.ports();
  const std::size_t vcs = alloc.vcs();

  QualityResult result;
  result.rate = rate;

  std::vector<bits::Word> vc_words(ports);
  std::vector<std::uint8_t> out_ports(ports * vcs);
  std::vector<SwitchGrant> grant;
  BitMatrix port_req(ports, ports);  // union: (p, o) iff a VC at p asks for o

  for (std::size_t t = 0; t < trials; ++t) {
    port_req.clear();
    for (std::size_t p = 0; p < ports; ++p) {
      bits::Word word = 0;
      for (std::size_t v = 0; v < vcs; ++v) {
        if (!rng.next_bool(rate)) continue;
        const std::size_t out = rng.next_below(ports);
        word |= bits::bit(v);
        out_ports[p * vcs + v] = static_cast<std::uint8_t>(out);
        port_req.set(p, out);
      }
      vc_words[p] = word;
    }

    alloc.allocate_sparse(vc_words.data(), out_ports.data(), grant);
    for (const SwitchGrant& g : grant) {
      if (g.granted()) ++result.grants;
    }
    // Maximum matching over the P x P union request matrix: the bound any
    // switch allocator (one grant per input port) can reach.
    result.max_grants += MaxSizeAllocator::max_matching_size(port_req);
  }
  return result;
}

}  // namespace nocalloc::quality
