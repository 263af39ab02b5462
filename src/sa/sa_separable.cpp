#include "sa/sa_separable.hpp"

namespace nocalloc {

SaSeparableInputFirst::SaSeparableInputFirst(std::size_t ports,
                                             std::size_t vcs, ArbiterKind arb)
    : SwitchAllocator(ports, vcs),
      vc_(arb, ports, vcs),
      out_(arb, ports, ports) {
  port_vc_.assign(ports, -1);
  fast_bids_.assign(ports, 0);
}

void SaSeparableInputFirst::allocate_sparse(const bits::Word* vc_words,
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

  // Stage 1: per input port, pick one requesting VC and bid for its output.
  bits::Word out_any = 0;
  for (std::size_t p = 0; p < p_count; ++p) {
    const bits::Word w = vc_words[p];
    if (w == 0) {
      port_vc_[p] = -1;
      continue;
    }
    const int v = vc_.pick(p, w);
    port_vc_[p] = v;
    const std::size_t o = out_ports[p * v_count + static_cast<std::size_t>(v)];
    fast_bids_[o] |= bits::bit(p);
    out_any |= bits::bit(o);
  }

  // Stage 2: per requested output port (ascending, as allocate_ref visits
  // them), arbitrate among forwarded bids.
  while (out_any != 0) {
    const auto o = static_cast<std::size_t>(std::countr_zero(out_any));
    out_any &= out_any - 1;
    const int p = out_.pick(o, fast_bids_[o]);
    fast_bids_[o] = 0;
    const auto pu = static_cast<std::size_t>(p);
    grant[pu] = {port_vc_[pu], static_cast<int>(o)};
    out_.update(o, p);
    vc_.update(pu, port_vc_[pu]);
  }
}

void SaSeparableInputFirst::allocate_ref(const std::vector<SwitchRequest>& req,
                                         std::vector<SwitchGrant>& grant) {
  // Stage 1: per input port, pick one requesting VC.
  std::vector<int> port_vc(ports(), -1);   // winning VC per input port
  std::vector<int> port_out(ports(), -1);  // its requested output
  ReqVector vc_req(vcs(), 0);
  for (std::size_t p = 0; p < ports(); ++p) {
    for (std::size_t v = 0; v < vcs(); ++v)
      vc_req[v] = req[p * vcs() + v].valid ? 1 : 0;
    const int v = vc_.pick_bytes(p, vc_req);
    if (v < 0) continue;
    port_vc[p] = v;
    port_out[p] = req[p * vcs() + static_cast<std::size_t>(v)].out_port;
  }

  // Stage 2: per output port, arbitrate among forwarded requests.
  ReqVector in_req(ports(), 0);
  for (std::size_t o = 0; o < ports(); ++o) {
    bool any = false;
    for (std::size_t p = 0; p < ports(); ++p) {
      const bool bid = port_out[p] == static_cast<int>(o);
      in_req[p] = bid ? 1 : 0;
      any = any || bid;
    }
    if (!any) continue;
    const int p = out_.pick_bytes(o, in_req);
    NOCALLOC_CHECK(p >= 0);
    const auto pu = static_cast<std::size_t>(p);
    grant[pu] = {port_vc[pu], static_cast<int>(o)};
    out_.update(o, p);
    vc_.update(pu, port_vc[pu]);
  }
}

void SaSeparableInputFirst::reset() {
  vc_.reset();
  out_.reset();
}

SaSeparableOutputFirst::SaSeparableOutputFirst(std::size_t ports,
                                               std::size_t vcs,
                                               ArbiterKind arb)
    : SwitchAllocator(ports, vcs),
      out_(arb, ports, ports),
      vc_(arb, ports, vcs) {
  fast_cols_.assign(ports, 0);
  out_choice_.assign(ports, -1);
}

void SaSeparableOutputFirst::allocate_sparse(const bits::Word* vc_words,
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

  // Union request columns: bit p of column o set iff any VC at input port p
  // requests output o.
  bits::Word out_any = 0;
  for (std::size_t p = 0; p < p_count; ++p) {
    bits::Word w = vc_words[p];
    while (w != 0) {
      const auto v = static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      const std::size_t o = out_ports[p * v_count + v];
      fast_cols_[o] |= bits::bit(p);
      out_any |= bits::bit(o);
    }
  }

  // Stage 1: per requested output port, pick a winning input port. Picks are
  // pure (updates deferred to stage 2, as in allocate_ref), so only the
  // winners matter, not the scan order.
  bits::Word port_won = 0;
  bits::Word scan = out_any;
  while (scan != 0) {
    const auto o = static_cast<std::size_t>(std::countr_zero(scan));
    scan &= scan - 1;
    const int p = out_.pick(o, fast_cols_[o]);
    fast_cols_[o] = 0;
    out_choice_[o] = p;
    port_won |= bits::bit(static_cast<std::size_t>(p));
  }

  // Stage 2: per input port that won at least one output, arbitrate among
  // VCs whose requested output chose this port; only then update priorities
  // (VC arbiter, then the chosen output's arbiter -- allocate_ref's order).
  while (port_won != 0) {
    const auto p = static_cast<std::size_t>(std::countr_zero(port_won));
    port_won &= port_won - 1;
    bits::Word cand = 0;
    bits::Word w = vc_words[p];
    while (w != 0) {
      const auto v = static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      if (out_choice_[out_ports[p * v_count + v]] == static_cast<int>(p)) {
        cand |= bits::bit(v);
      }
    }
    const int v = vc_.pick(p, cand);
    NOCALLOC_DCHECK(v >= 0);
    const int o = out_ports[p * v_count + static_cast<std::size_t>(v)];
    grant[p] = {v, o};
    vc_.update(p, v);
    out_.update(static_cast<std::size_t>(o), static_cast<int>(p));
  }
}

void SaSeparableOutputFirst::allocate_ref(const std::vector<SwitchRequest>& req,
                                          std::vector<SwitchGrant>& grant) {
  BitMatrix ports_req;
  port_requests(req, ports_req);

  // Stage 1: per output port, pick a winning input port among the combined
  // per-port requests.
  std::vector<int> out_choice(ports(), -1);
  ReqVector in_req(ports(), 0);
  for (std::size_t o = 0; o < ports(); ++o) {
    bool any = false;
    for (std::size_t p = 0; p < ports(); ++p) {
      in_req[p] = ports_req.get(p, o) ? 1 : 0;
      any = any || in_req[p];
    }
    if (any) out_choice[o] = out_.pick_bytes(o, in_req);
  }

  // Stage 2: per input port, arbitrate among VCs that can use any output
  // granted to this port; the winning VC fixes the output actually used.
  ReqVector vc_cand(vcs(), 0);
  for (std::size_t p = 0; p < ports(); ++p) {
    bool any = false;
    for (std::size_t v = 0; v < vcs(); ++v) {
      const SwitchRequest& r = req[p * vcs() + v];
      const bool usable =
          r.valid && out_choice[static_cast<std::size_t>(r.out_port)] ==
                         static_cast<int>(p);
      vc_cand[v] = usable ? 1 : 0;
      any = any || usable;
    }
    if (!any) continue;
    const int v = vc_.pick_bytes(p, vc_cand);
    NOCALLOC_CHECK(v >= 0);
    const int o = req[p * vcs() + static_cast<std::size_t>(v)].out_port;
    grant[p] = {v, o};
    vc_.update(p, v);
    out_.update(static_cast<std::size_t>(o), static_cast<int>(p));
  }
}

void SaSeparableOutputFirst::reset() {
  out_.reset();
  vc_.reset();
}

}  // namespace nocalloc
