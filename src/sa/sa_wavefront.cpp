#include "sa/sa_wavefront.hpp"

namespace nocalloc {

SaWavefront::SaWavefront(std::size_t ports, std::size_t vcs,
                         ArbiterKind presel_arb)
    : SwitchAllocator(ports, vcs),
      core_(ports, ports),
      presel_(presel_arb, ports * ports, vcs) {}

void SaWavefront::allocate_sparse(const bits::Word* vc_words,
                                  const std::uint8_t* out_ports,
                                  std::vector<SwitchGrant>& grant) {
  const std::size_t p_count = ports();
  const std::size_t v_count = vcs();
  grant.assign(p_count, SwitchGrant{});
  if (reference_path()) {
    with_dense_requests(vc_words, out_ports,
                        [&](const std::vector<SwitchRequest>& dense) {
                          allocate_ref(dense, grant);
                        });
    return;
  }

  // Request each VC's (port, output) cell: the OR over VCs is the sparse
  // form of port_requests(), and repeating a cell is harmless.
  for (std::size_t p = 0; p < p_count; ++p) {
    bits::Word w = vc_words[p];
    while (w != 0) {
      const auto v = static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      core_.request(p, out_ports[p * v_count + v]);
    }
  }

  // Pre-selection: each granted (p, o) pair's V:1 arbiter picks among the
  // VCs at p that requested o. Pairs are disjoint in p, so each arbiter
  // updates at most once and grant order does not matter.
  core_.grant_requested([&](std::size_t p, std::size_t o) {
    bits::Word cand = 0;
    bits::Word w = vc_words[p];
    while (w != 0) {
      const auto v = static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      if (out_ports[p * v_count + v] == o) cand |= bits::bit(v);
    }
    const std::size_t k = p * p_count + o;
    const int v = presel_.pick(k, cand);
    NOCALLOC_DCHECK(v >= 0);  // the core only grants requested pairs
    grant[p] = {static_cast<int>(v), static_cast<int>(o)};
    presel_.update(k, v);
  });
}

void SaWavefront::allocate_ref(const std::vector<SwitchRequest>& req,
                               std::vector<SwitchGrant>& grant) {
  BitMatrix ports_req;
  port_requests(req, ports_req);

  BitMatrix ports_gnt;
  WavefrontAllocator::allocate_from_diagonal(ports_req, core_.diagonal(),
                                             ports_gnt);
  core_.advance_priority(1);

  ReqVector vc_req(vcs(), 0);
  for (std::size_t p = 0; p < ports(); ++p) {
    const int o = ports_gnt.row_single(p);
    if (o < 0) continue;
    bool any = false;
    for (std::size_t v = 0; v < vcs(); ++v) {
      const SwitchRequest& r = req[p * vcs() + v];
      const bool cand = r.valid && r.out_port == o;
      vc_req[v] = cand ? 1 : 0;
      any = any || cand;
    }
    NOCALLOC_CHECK(any);  // the core only grants requested pairs
    const std::size_t k = p * ports() + static_cast<std::size_t>(o);
    const int v = presel_.pick_bytes(k, vc_req);
    NOCALLOC_CHECK(v >= 0);
    grant[p] = {v, o};
    presel_.update(k, v);
  }
}

void SaWavefront::reset() {
  core_.reset();
  presel_.reset();
}

}  // namespace nocalloc
