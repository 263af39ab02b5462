#include "vc/vc_separable_allocator.hpp"

namespace nocalloc {

void VcSeparableInputFirstAllocator::state(StateArchive& ar) {
  in_.state(ar);
  for (std::size_t o = 0; o < total(); ++o) {
    tree_state(ar, out_top_, out_local_, o);
  }
}

void VcSeparableOutputFirstAllocator::state(StateArchive& ar) {
  for (std::size_t o = 0; o < total(); ++o) {
    tree_state(ar, out_top_, out_local_, o);
  }
  in_.state(ar);
}

VcSeparableInputFirstAllocator::VcSeparableInputFirstAllocator(
    std::size_t ports, std::size_t vcs, ArbiterKind arb)
    : VcAllocator(ports, vcs),
      in_(arb, total(), vcs),
      out_top_(arb, total(), ports),
      out_local_(arb, total() * ports, vcs) {
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
    const int v = in_.pick(i, mask);
    const std::size_t o =
        req[k].out_port * v_count + static_cast<std::size_t>(v);
    if (fast_port_any_[o] == 0) fast_touched_.push_back(o);
    fast_port_any_[o] |= bits::bit(i / v_count);
    fast_bids_[o * p_count + i / v_count] |= bits::bit(i % v_count);
  }

  // Stage 2: tree arbitration per bid-for output VC -- a top-level pick over
  // ports with bids, a local pick within the winning port's slice, and the
  // on-success updates of both. Outputs are independent (every input bids
  // on exactly one), so touch order does not matter.
  for (const std::size_t o : fast_touched_) {
    const auto winner = static_cast<std::size_t>(tree_pick(
        out_top_, out_local_, o, fast_port_any_[o], &fast_bids_[o * p_count]));
    grant[winner] = static_cast<int>(o);
    tree_update(out_top_, out_local_, o, winner);
    // The winning input VC's stage-1 choice succeeded: advance its priority.
    in_.update(winner, static_cast<int>(o % v_count));
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
    const int v = in_.pick_bytes(i, r.vc_mask);
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
    const int winner = tree_pick_bytes(out_top_, out_local_, o, bids);
    NOCALLOC_CHECK(winner >= 0);
    const auto w = static_cast<std::size_t>(winner);
    grant[w] = static_cast<int>(o);
    tree_update(out_top_, out_local_, o, w);
    // The winning input VC's stage-1 choice succeeded: advance its priority.
    in_.update(w, static_cast<int>(o % vcs()));
  }
}

void VcSeparableInputFirstAllocator::reset() {
  in_.reset();
  out_top_.reset();
  out_local_.reset();
}

VcSeparableOutputFirstAllocator::VcSeparableOutputFirstAllocator(
    std::size_t ports, std::size_t vcs, ArbiterKind arb)
    : VcAllocator(ports, vcs),
      out_top_(arb, total(), ports),
      out_local_(arb, total() * ports, vcs),
      in_(arb, total(), vcs) {
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
    const auto winner = static_cast<std::size_t>(tree_pick(
        out_top_, out_local_, o, fast_port_any_[o], &fast_bids_[o * p_count]));
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
    const auto v = static_cast<std::size_t>(in_.pick(i, fast_offered_[i]));
    fast_offered_[i] = 0;
    const std::size_t o = fw.out_port * v_count + v;
    grant[i] = static_cast<int>(o);
    in_.update(i, static_cast<int>(v));
    tree_update(out_top_, out_local_, o, i);
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
    if (any) output_choice[o] = tree_pick_bytes(out_top_, out_local_, o, col);
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
    const int v = in_.pick_bytes(i, offered);
    NOCALLOC_CHECK(v >= 0);
    const std::size_t o = base + static_cast<std::size_t>(v);
    grant[i] = static_cast<int>(o);
    in_.update(i, v);
    tree_update(out_top_, out_local_, o, i);
  }
}

void VcSeparableOutputFirstAllocator::reset() {
  out_top_.reset();
  out_local_.reset();
  in_.reset();
}

}  // namespace nocalloc
