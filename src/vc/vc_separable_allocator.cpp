#include "vc/vc_separable_allocator.hpp"

namespace nocalloc {
namespace {

/// Resolves the devirtualized handles a separable kernel needs: one per
/// input VC plus both levels of every output tree arbiter. Every arbiter is
/// P or V wide, so each has a single-word pick.
void resolve_fast_arbiters(
    const std::vector<std::unique_ptr<Arbiter>>& input_arb,
    const std::vector<std::unique_ptr<TreeArbiter>>& output_arb,
    std::size_t ports, std::vector<FastArb>& in_fa,
    std::vector<FastArb>& out_top_fa, std::vector<FastArb>& out_local_fa) {
  in_fa.reserve(input_arb.size());
  out_top_fa.reserve(output_arb.size());
  out_local_fa.reserve(output_arb.size() * ports);
  for (const auto& a : input_arb) {
    in_fa.push_back(FastArb::from(*a));
    NOCALLOC_DCHECK(in_fa.back().ok());
  }
  for (const auto& tree : output_arb) {
    out_top_fa.push_back(FastArb::from(tree->top()));
    NOCALLOC_DCHECK(out_top_fa.back().ok());
    for (std::size_t g = 0; g < ports; ++g) {
      out_local_fa.push_back(FastArb::from(tree->local(g)));
      NOCALLOC_DCHECK(out_local_fa.back().ok());
    }
  }
}

/// The output tree arbiters' priority state in TreeArbiter::state order:
/// each tree's top, then its P locals.
void output_tree_state(StateArchive& ar, std::vector<FastArb>& out_top_fa,
                       std::vector<FastArb>& out_local_fa, std::size_t ports) {
  for (std::size_t o = 0; o < out_top_fa.size(); ++o) {
    out_top_fa[o].state(ar);
    for (std::size_t g = 0; g < ports; ++g) {
      out_local_fa[o * ports + g].state(ar);
    }
  }
}

}  // namespace

void VcSeparableInputFirstAllocator::state(StateArchive& ar) {
  for (FastArb& fa : in_fa_) fa.state(ar);
  output_tree_state(ar, out_top_fa_, out_local_fa_, ports());
}

void VcSeparableOutputFirstAllocator::state(StateArchive& ar) {
  output_tree_state(ar, out_top_fa_, out_local_fa_, ports());
  for (FastArb& fa : in_fa_) fa.state(ar);
}

VcSeparableInputFirstAllocator::VcSeparableInputFirstAllocator(
    std::size_t ports, std::size_t vcs, ArbiterKind arb)
    : VcAllocator(ports, vcs) {
  for (std::size_t i = 0; i < total(); ++i)
    input_arb_.push_back(make_arbiter(arb, vcs));
  for (std::size_t o = 0; o < total(); ++o)
    output_arb_.push_back(std::make_unique<TreeArbiter>(arb, ports, vcs));
  resolve_fast_arbiters(input_arb_, output_arb_, ports, in_fa_, out_top_fa_,
                        out_local_fa_);
  fast_bids_.assign(total() * ports, 0);
  fast_port_any_.assign(total(), 0);
  fast_touched_.reserve(total());
}

void VcSeparableInputFirstAllocator::allocate_sparse(const FastVcRequest* req,
                                                     std::size_t n,
                                                     std::vector<int>& grant) {
  if (reference_path()) {
    with_dense_requests(req, n, [&](const std::vector<VcRequest>& dense) {
      allocate_ref(dense, grant);
    });
    return;
  }
  NOCALLOC_DCHECK(grant.size() == total());
  const std::size_t p_count = ports();
  const std::size_t v_count = vcs();

  // Stage 1, as in allocate_ref: each input VC's arbiter picks one
  // candidate output VC; the bid lands in the per-port slice of that output
  // VC's tree arbiter.
  for (std::size_t k = 0; k < n; ++k) {
    const bits::Word mask = req[k].vc_mask;
    if (mask == 0) continue;  // empty candidate mask
    const std::size_t i = req[k].input;
    const int v = in_fa_[i].pick(mask);
    const std::size_t o =
        req[k].out_port * v_count + static_cast<std::size_t>(v);
    if (fast_port_any_[o] == 0) fast_touched_.push_back(o);
    fast_port_any_[o] |= bits::bit(i / v_count);
    fast_bids_[o * p_count + i / v_count] |= bits::bit(i % v_count);
  }

  // Stage 2: tree arbitration per bid-for output VC -- a top-level pick over
  // ports with bids, a local pick within the winning port's slice, and the
  // same on-success updates as TreeArbiter::update. Outputs are independent
  // (every input bids on exactly one), so touch order does not matter.
  for (const std::size_t o : fast_touched_) {
    const auto g = static_cast<std::size_t>(
        out_top_fa_[o].pick(fast_port_any_[o]));
    FastArb& local = out_local_fa_[o * p_count + g];
    const auto l =
        static_cast<std::size_t>(local.pick(fast_bids_[o * p_count + g]));
    const std::size_t winner = g * v_count + l;
    grant[winner] = static_cast<int>(o);
    out_top_fa_[o].update(static_cast<int>(g));
    local.update(static_cast<int>(l));
    // The winning input VC's stage-1 choice succeeded: advance its priority.
    in_fa_[winner].update(static_cast<int>(o % v_count));
    bits::for_each_set(&fast_port_any_[o], 1, [&](std::size_t p) {
      fast_bids_[o * p_count + p] = 0;
    });
    fast_port_any_[o] = 0;
  }
  fast_touched_.clear();
}

void VcSeparableInputFirstAllocator::allocate_ref(
    const std::vector<VcRequest>& req, std::vector<int>& grant) {
  // Stage 1: each input VC selects one candidate output VC at its port.
  // input_bid[i] = global output VC the input bids on, or -1.
  std::vector<int> input_bid(total(), -1);
  for (std::size_t i = 0; i < total(); ++i) {
    const VcRequest& r = req[i];
    if (!r.valid) continue;
    const int v = input_arb_[i]->pick(r.vc_mask);
    if (v < 0) continue;  // empty candidate mask
    input_bid[i] = r.out_port * static_cast<int>(vcs()) + v;
  }

  // Stage 2: each output VC arbitrates among input VCs bidding for it.
  ReqVector bids(total(), 0);
  for (std::size_t o = 0; o < total(); ++o) {
    bool any = false;
    for (std::size_t i = 0; i < total(); ++i) {
      const bool bid = input_bid[i] == static_cast<int>(o);
      bids[i] = bid ? 1 : 0;
      any = any || bid;
    }
    if (!any) continue;
    const int winner = output_arb_[o]->pick(bids);
    NOCALLOC_CHECK(winner >= 0);
    grant[static_cast<std::size_t>(winner)] = static_cast<int>(o);
    output_arb_[o]->update(winner);
    // The winning input VC's stage-1 choice succeeded: advance its priority.
    input_arb_[static_cast<std::size_t>(winner)]->update(
        static_cast<int>(o % vcs()));
  }
}

void VcSeparableInputFirstAllocator::reset() {
  for (auto& a : input_arb_) a->reset();
  for (auto& a : output_arb_) a->reset();
}

VcSeparableOutputFirstAllocator::VcSeparableOutputFirstAllocator(
    std::size_t ports, std::size_t vcs, ArbiterKind arb)
    : VcAllocator(ports, vcs) {
  for (std::size_t o = 0; o < total(); ++o)
    output_arb_.push_back(std::make_unique<TreeArbiter>(arb, ports, vcs));
  for (std::size_t i = 0; i < total(); ++i)
    input_arb_.push_back(make_arbiter(arb, vcs));
  resolve_fast_arbiters(input_arb_, output_arb_, ports, in_fa_, out_top_fa_,
                        out_local_fa_);
  fast_bids_.assign(total() * ports, 0);
  fast_port_any_.assign(total(), 0);
  fast_offered_.assign(total(), 0);
  fast_touched_.reserve(total());
  fast_winners_.reserve(total());
}

void VcSeparableOutputFirstAllocator::allocate_sparse(
    const FastVcRequest* req, std::size_t n, std::vector<int>& grant) {
  if (reference_path()) {
    with_dense_requests(req, n, [&](const std::vector<VcRequest>& dense) {
      allocate_ref(dense, grant);
    });
    return;
  }
  NOCALLOC_DCHECK(grant.size() == total());
  const std::size_t p_count = ports();
  const std::size_t v_count = vcs();

  // Bid build: every candidate bit of every request reaches its output VC's
  // tree arbiter eagerly, landing in the per-port group slice for input i's
  // port.
  for (std::size_t k = 0; k < n; ++k) {
    bits::Word mask = req[k].vc_mask;
    if (mask == 0) continue;
    const std::size_t i = req[k].input;
    const std::size_t g = i / v_count;
    const bits::Word l_bit = bits::bit(i % v_count);
    const std::size_t out_base = req[k].out_port * v_count;
    bits::for_each_set(&mask, 1, [&](std::size_t w) {
      const std::size_t o = out_base + w;
      if (fast_port_any_[o] == 0) fast_touched_.push_back(o);
      fast_port_any_[o] |= bits::bit(g);
      fast_bids_[o * p_count + g] |= l_bit;
    });
  }

  // Stage 1: every requested output VC picks a winning input VC through its
  // tree arbiter. Picks are pure (no updates until stage 2, as in
  // allocate_ref), so visiting touched outputs in insertion order selects
  // the same winners as the reference's ascending scan. Each winner's
  // offered set collects the output VC at its single destination port.
  for (const std::size_t o : fast_touched_) {
    const auto g = static_cast<std::size_t>(
        out_top_fa_[o].pick(fast_port_any_[o]));
    const auto l = static_cast<std::size_t>(
        out_local_fa_[o * p_count + g].pick(fast_bids_[o * p_count + g]));
    const std::size_t winner = g * v_count + l;
    if (fast_offered_[winner] == 0) {
      fast_winners_.push_back({static_cast<std::uint32_t>(winner),
                               static_cast<std::uint32_t>(o / v_count)});
    }
    fast_offered_[winner] |= bits::bit(o % v_count);
    // Clear this output's bid scratch now that its pick is taken.
    bits::for_each_set(&fast_port_any_[o], 1, [&](std::size_t p) {
      fast_bids_[o * p_count + p] = 0;
    });
    fast_port_any_[o] = 0;
  }
  fast_touched_.clear();

  // Stage 2: each input VC that won output VCs picks the one actually taken
  // and only then updates priorities -- its own V:1 arbiter plus the chosen
  // output's tree levels. Winners hold disjoint outputs (stage 1 assigned
  // each output to exactly one input), so processing order is immaterial.
  for (const FastWinner& fw : fast_winners_) {
    const std::size_t i = fw.input;
    const auto v = static_cast<std::size_t>(in_fa_[i].pick(fast_offered_[i]));
    fast_offered_[i] = 0;
    const std::size_t o = fw.out_port * v_count + v;
    grant[i] = static_cast<int>(o);
    in_fa_[i].update(static_cast<int>(v));
    out_top_fa_[o].update(static_cast<int>(i / v_count));
    out_local_fa_[o * p_count + i / v_count].update(
        static_cast<int>(i % v_count));
  }
  fast_winners_.clear();
}

void VcSeparableOutputFirstAllocator::allocate_ref(
    const std::vector<VcRequest>& req, std::vector<int>& grant) {
  BitMatrix full;
  expand_requests(req, full);

  // Stage 1: every output VC picks among all input VCs requesting it.
  // output_choice[o] = winning input VC, or -1.
  std::vector<int> output_choice(total(), -1);
  ReqVector col(total(), 0);
  for (std::size_t o = 0; o < total(); ++o) {
    bool any = false;
    for (std::size_t i = 0; i < total(); ++i) {
      col[i] = full.get(i, o) ? 1 : 0;
      any = any || col[i];
    }
    if (any) output_choice[o] = output_arb_[o]->pick(col);
  }

  // Stage 2: each input VC picks among the output VCs (all at its single
  // destination port) that chose it.
  ReqVector offered(vcs(), 0);
  for (std::size_t i = 0; i < total(); ++i) {
    const VcRequest& r = req[i];
    if (!r.valid) continue;
    const std::size_t base = static_cast<std::size_t>(r.out_port) * vcs();
    bool any = false;
    for (std::size_t v = 0; v < vcs(); ++v) {
      const bool off = output_choice[base + v] == static_cast<int>(i);
      offered[v] = off ? 1 : 0;
      any = any || off;
    }
    if (!any) continue;
    const int v = input_arb_[i]->pick(offered);
    NOCALLOC_CHECK(v >= 0);
    const std::size_t o = base + static_cast<std::size_t>(v);
    grant[i] = static_cast<int>(o);
    input_arb_[i]->update(v);
    output_arb_[o]->update(static_cast<int>(i));
  }
}

void VcSeparableOutputFirstAllocator::reset() {
  for (auto& a : output_arb_) a->reset();
  for (auto& a : input_arb_) a->reset();
}

}  // namespace nocalloc
