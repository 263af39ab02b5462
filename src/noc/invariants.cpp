#include "noc/invariants.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_set>
#include <utility>
#include <vector>

#include "noc/network.hpp"
#include "noc/router.hpp"

namespace nocalloc::noc {

std::string to_string(const InvariantViolation& violation) {
  std::ostringstream os;
  os << "cycle " << violation.cycle;
  if (violation.router >= 0) os << " router " << violation.router;
  if (violation.port >= 0) os << " port " << violation.port;
  if (violation.vc >= 0) os << " vc " << violation.vc;
  os << ": " << violation.check << ": " << violation.message;
  return os.str();
}

InvariantError::InvariantError(InvariantViolation violation)
    : std::runtime_error(to_string(violation)),
      violation_(std::move(violation)) {}

InvariantChecker::InvariantChecker(InvariantCheckerConfig cfg)
    : cfg_(cfg) {}

void InvariantChecker::set_violation_handler(ViolationHandler handler) {
  handler_ = std::move(handler);
}

void InvariantChecker::throw_on_violation() {
  handler_ = [](const InvariantViolation& v) { throw InvariantError(v); };
}

void InvariantChecker::report(InvariantViolation violation) {
  ++violations_;
  if (handler_) {
    handler_(violation);
    return;
  }
  std::fprintf(stderr, "invariant violation: %s\n",
               to_string(violation).c_str());
  std::abort();
}

// ---- Allocation-result hooks ------------------------------------------------

void InvariantChecker::on_vc_alloc(const Router& router, Cycle now,
                                   const FastVcRequest* req, std::size_t n,
                                   const std::vector<int>& grant) {
  ++checks_;
  const std::size_t vcs = router.vcs_;
  const std::size_t total = router.cfg_.ports * vcs;

  auto violation = [&](std::size_t input, const std::string& msg) {
    report(InvariantViolation{now, router.id(),
                              static_cast<int>(input / vcs),
                              static_cast<int>(input % vcs), "vc-alloc", msg});
  };

  if (grant.size() != total) {
    report(InvariantViolation{now, router.id(), -1, -1, "vc-alloc",
                              "result size does not match P*V"});
    return;
  }

  // Requests are ascending by input VC, so each grant finds its request by
  // binary search; every grant entry is scanned, so a grant to an input VC
  // that made no request is caught whatever produced it.
  std::unordered_set<int> granted_out;
  for (std::size_t i = 0; i < total; ++i) {
    const int g = grant[i];
    if (g < 0) continue;
    const FastVcRequest* r = std::lower_bound(
        req, req + n, i, [](const FastVcRequest& q, std::size_t input) {
          return q.input < input;
        });
    if (r == req + n || r->input != i) {
      violation(i, "grant to an input VC that made no request");
      continue;
    }
    if (static_cast<std::size_t>(g) >= total) {
      violation(i, "granted output VC index out of range");
      continue;
    }
    const auto out_port = static_cast<std::size_t>(g) / vcs;
    const auto out_vc = static_cast<std::size_t>(g) % vcs;
    if (out_port != r->out_port) {
      violation(i, "granted VC lives at a different output port than "
                   "the one routing selected");
    }
    if ((r->vc_mask & bits::bit(out_vc)) == 0) {
      violation(i, "granted VC is outside the request's candidate mask");
    }
    // Called pre-commit, so a legally granted output VC is still free.
    if ((router.out_alloc_words_[out_port] & bits::bit(out_vc)) != 0) {
      violation(i, "granted an output VC that is already allocated");
    }
    if (!granted_out.insert(g).second) {
      violation(i, "output VC granted to two input VCs in one cycle");
    }
  }
}

void InvariantChecker::on_sw_alloc(
    const Router& router, Cycle now, const bits::Word* ns_words,
    const std::uint8_t* ns_out, const bits::Word* sp_words,
    const std::uint8_t* sp_out, const std::vector<SpecSwitchGrant>& grant) {
  ++checks_;
  const std::size_t ports = router.cfg_.ports;
  const std::size_t vcs = router.vcs_;
  const SpecMode mode = router.cfg_.spec;
  const char* check =
      mode == SpecMode::kNonSpeculative ? "sw-alloc" : "spec-sw-alloc";

  if (grant.size() != ports) {
    report(InvariantViolation{now, router.id(), -1, -1, check,
                              "result size does not match port/VC counts"});
    return;
  }

  // Validate each half against its own requests and check that the union of
  // surviving grants is still a matching. A nonspec router bids nothing
  // speculatively, so there every speculative grant lacks a request.
  std::unordered_set<int> granted_out;
  auto check_half = [&](std::size_t p, const SwitchGrant& g,
                        const bits::Word* words, const std::uint8_t* outs,
                        const char* label) {
    auto violation = [&](const std::string& msg) {
      report(InvariantViolation{now, router.id(), static_cast<int>(p), g.vc,
                                check, std::string(label) + ": " + msg});
    };
    if (static_cast<std::size_t>(g.vc) >= vcs) {
      violation("winning VC index out of range");
      return;
    }
    if (g.out_port < 0 || static_cast<std::size_t>(g.out_port) >= ports) {
      violation("granted output port out of range");
      return;
    }
    const auto v = static_cast<std::size_t>(g.vc);
    if ((words[p] & bits::bit(v)) == 0) {
      violation("grant to a VC that made no request");
    } else if (static_cast<int>(outs[p * vcs + v]) != g.out_port) {
      violation("grant targets a different output port than requested");
    }
    if (!granted_out.insert(g.out_port).second) {
      violation("output port granted twice across the spec/nonspec union");
    }
  };

  for (std::size_t p = 0; p < ports; ++p) {
    const SpecSwitchGrant& g = grant[p];
    if (g.nonspec.granted() && g.spec.granted()) {
      report(InvariantViolation{now, router.id(), static_cast<int>(p), -1,
                                check,
                                "both speculative and non-speculative grants "
                                "survived at one input port"});
    }
    if (g.nonspec.granted()) {
      check_half(p, g.nonspec, ns_words, ns_out, "nonspec");
    }
    if (g.spec.granted()) check_half(p, g.spec, sp_words, sp_out, "spec");
  }

  // Masking rules of Sec. 5.2. With pessimistic (spec_req) masking, a
  // surviving speculative grant implies the *requests* it was masked against
  // were absent: no non-speculative request at its input port and none
  // targeting its output port anywhere. Conventional (spec_gnt) masking only
  // promises absence of conflicting non-speculative *grants*, which the
  // matching checks above already cover.
  if (mode != SpecMode::kPessimistic) return;
  for (std::size_t p = 0; p < ports; ++p) {
    const SwitchGrant& g = grant[p].spec;
    if (!g.granted()) continue;
    for (std::size_t q = 0; q < ports; ++q) {
      bits::Word w = ns_words[q];
      bits::for_each_set(&w, 1, [&](std::size_t v) {
        const bool same_input = q == p;
        const bool same_output =
            static_cast<int>(ns_out[q * vcs + v]) == g.out_port;
        if (same_input || same_output) {
          report(InvariantViolation{
              now, router.id(), static_cast<int>(p), g.vc, check,
              "speculative grant survived pessimistic masking despite a "
              "conflicting non-speculative request at port " +
                  std::to_string(q)});
        }
      });
    }
  }
}

void InvariantChecker::on_route(const Router& router, Cycle now, int out_port,
                                std::size_t from_class,
                                std::size_t to_class) {
  if (relation_.empty()) return;
  ++checks_;
  if (!relation_.transition_allowed(from_class, to_class)) {
    report(InvariantViolation{
        now, router.id(), out_port, -1, "route-legality",
        "routing emitted resource-class transition " +
            std::to_string(from_class) + " -> " + std::to_string(to_class) +
            " outside the statically verified relation"});
  }
}

// ---- Step-boundary checks ---------------------------------------------------

void InvariantChecker::after_step(const Network& net) {
  const Cycle now = net.now_;
  for (const auto& router : net.routers_) check_router_state(*router, now);
  check_link_credits(net);
  check_flit_conservation(net);
  check_scheduler_sets(net);
  if (cfg_.deadlock_cycles > 0) check_progress(net);
}

void InvariantChecker::check_scheduler_sets(const Network& net) {
  ++checks_;
  const Cycle now = net.now_;
  // Every scheduling set is audited both ways against ground truth read
  // from VC states, source queues and channel contents -- never from the
  // bits the scheduler itself maintains -- so a lost bit is reported here
  // before it can skew router_steps_skipped or drop an arrival.
  auto router_violation = [&](std::size_t r, int port, const std::string& msg) {
    report(InvariantViolation{now, static_cast<int>(r), port, -1, "active-set",
                              msg});
  };
  auto terminal_violation = [&](std::size_t t, const std::string& msg) {
    const Network::TerminalWiring& tw = net.terminal_wirings_[t];
    report(InvariantViolation{now, tw.router, tw.port, -1, "active-set",
                              "terminal " + std::to_string(t) + " " + msg});
  };

  // Expected due slots: each in-flight item marks its consumer at its
  // arrival cycle, which must lie in (now, now + slots). The slot of `now`
  // itself was consumed by this step's receive pass and must be empty.
  auto audit_due = [&](const DueSet& due, std::size_t n, const char* kind,
                       auto&& for_each_inbound) {
    const std::size_t stride = due.words_per_slot();
    const std::size_t slots = due.slots();
    std::vector<bits::Word> want(slots * stride, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for_each_inbound(i, [&](const auto& channel) {
        channel.for_each_arrival([&](Cycle arrival) {
          if (arrival <= now || arrival >= now + slots) {
            report(InvariantViolation{
                now, -1, -1, -1, "active-set",
                std::string(kind) + " " + std::to_string(i) +
                    " has an item arriving at cycle " +
                    std::to_string(arrival) + ", outside the due window"});
            return;
          }
          want[static_cast<std::size_t>(arrival % slots) * stride +
               bits::word_of(i)] |= bits::bit(i);
        });
      });
    }
    for (std::size_t k = 1; k <= slots; ++k) {
      const Cycle c = now + k;
      const bits::Word* got = due.slot(c);
      const bits::Word* exp =
          want.data() + static_cast<std::size_t>(c % slots) * stride;
      for (std::size_t w = 0; w < stride; ++w) {
        bits::Word diff = got[w] ^ exp[w];
        while (diff != 0) {
          const std::size_t i =
              w * bits::kWordBits +
              static_cast<std::size_t>(std::countr_zero(diff));
          diff &= diff - 1;
          report(InvariantViolation{
              now, -1, -1, -1, "active-set",
              std::string(kind) + " " + std::to_string(i) +
                  ": due bit for cycle " + std::to_string(c) +
                  " disagrees with the channels' arrivals"});
        }
      }
    }
  };

  for (std::size_t r = 0; r < net.routers_.size(); ++r) {
    const Router& router = *net.routers_[r];
    bool busy = false;
    for (const Router::InputVc& ivc : router.input_vcs_) {
      busy = busy || ivc.state != Router::VcState::kIdle;
    }
    bool inflight = false;
    for (std::size_t p = 0; p < router.cfg_.ports; ++p) {
      const bool flits = router.flits_in_[p] != nullptr &&
                         !router.flits_in_[p]->empty();
      const bool credits = router.credits_in_[p] != nullptr &&
                           !router.credits_in_[p]->empty();
      inflight = inflight || flits || credits;
      if (flits != ((router.rx_flit_pending_ & bits::bit(p)) != 0) ||
          credits != ((router.rx_credit_pending_ & bits::bit(p)) != 0)) {
        router_violation(r, static_cast<int>(p),
                         "receive-pending bit disagrees with the channel");
      }
    }
    if (busy != bits::test(net.router_occupied_.data(), r)) {
      router_violation(r, -1, "occupied bit disagrees with the VC states");
    }
    if (inflight != ((net.router_due_.inflight(bits::word_of(r)) &
                      bits::bit(r)) != 0)) {
      router_violation(r, -1, "inflight bit disagrees with the channels");
    }
    if ((busy || inflight) != bits::test(net.router_active_.data(), r)) {
      router_violation(r, -1, "active bit is not occupied | inflight");
    }
  }
  audit_due(net.router_due_, net.routers_.size(), "router",
            [&](std::size_t r, auto&& visit) {
              const Router& router = *net.routers_[r];
              for (std::size_t p = 0; p < router.cfg_.ports; ++p) {
                if (router.flits_in_[p] != nullptr) visit(*router.flits_in_[p]);
                if (router.credits_in_[p] != nullptr) {
                  visit(*router.credits_in_[p]);
                }
              }
            });

  for (std::size_t t = 0; t < net.terminals_.size(); ++t) {
    const Network::TerminalWiring& tw = net.terminal_wirings_[t];
    const bool has_packet = net.terminals_[t]->queued_packets() > 0;
    if (has_packet != bits::test(net.terminal_injecting_.data(), t)) {
      terminal_violation(t, "injecting bit disagrees with the source queues");
    }
    const bool inflight = !tw.ej_flits->empty() || !tw.inj_credits->empty();
    if (inflight != ((net.terminal_due_.inflight(bits::word_of(t)) &
                      bits::bit(t)) != 0) ||
        inflight != bits::test(net.terminal_active_.data(), t)) {
      terminal_violation(t, "inflight or active bit disagrees with the "
                            "channels");
    }
  }
  audit_due(net.terminal_due_, net.terminals_.size(), "terminal",
            [&](std::size_t t, auto&& visit) {
              visit(*net.terminal_wirings_[t].ej_flits);
              visit(*net.terminal_wirings_[t].inj_credits);
            });
}

void InvariantChecker::check_router_state(const Router& router, Cycle now) {
  ++checks_;
  const std::size_t ports = router.cfg_.ports;
  const std::size_t vcs = router.vcs_;
  const std::size_t depth = router.cfg_.buffer_depth;

  // Output VC ownership: exactly the allocated output VCs must be held, each
  // by exactly one active input VC.
  std::vector<int> owners(ports * vcs, 0);

  for (std::size_t p = 0; p < ports; ++p) {
    for (std::size_t v = 0; v < vcs; ++v) {
      const Router::InputVc& ivc = router.input_vcs_[p * vcs + v];
      auto violation = [&](const char* check, const std::string& msg) {
        report(InvariantViolation{now, router.id(), static_cast<int>(p),
                                  static_cast<int>(v), check, msg});
      };
      if (ivc.buffer.size() > depth) {
        violation("buffer-overflow",
                  "input VC holds " + std::to_string(ivc.buffer.size()) +
                      " flits with buffer depth " + std::to_string(depth));
      }
      switch (ivc.state) {
        case Router::VcState::kIdle:
          if (!ivc.buffer.empty()) {
            violation("vc-state", "idle input VC has buffered flits");
          }
          if (ivc.out_vc != -1) {
            violation("vc-state", "idle input VC still holds an output VC");
          }
          break;
        case Router::VcState::kWaitVc:
          if (ivc.buffer.empty() || !ivc.buffer.front().head) {
            violation("vc-state",
                      "waiting input VC has no head flit at the front");
          }
          if (ivc.out_vc != -1) {
            violation("vc-state",
                      "waiting input VC already holds an output VC");
          }
          if (ivc.route.out_port < 0 ||
              static_cast<std::size_t>(ivc.route.out_port) >= ports) {
            violation("vc-state", "waiting input VC has no valid route");
          }
          break;
        case Router::VcState::kActive:
          if (ivc.out_vc < 0 || static_cast<std::size_t>(ivc.out_vc) >= vcs ||
              ivc.route.out_port < 0 ||
              static_cast<std::size_t>(ivc.route.out_port) >= ports) {
            violation("vc-state",
                      "active input VC has no valid output VC/route");
          } else {
            ++owners[static_cast<std::size_t>(ivc.route.out_port) * vcs +
                     static_cast<std::size_t>(ivc.out_vc)];
          }
          break;
      }
    }
  }

  for (std::size_t p = 0; p < ports; ++p) {
    for (std::size_t v = 0; v < vcs; ++v) {
      const Router::OutputVc& ovc = router.output_vcs_[p * vcs + v];
      auto violation = [&](const char* check, const std::string& msg) {
        report(InvariantViolation{now, router.id(), static_cast<int>(p),
                                  static_cast<int>(v), check, msg});
      };
      if (ovc.credits > depth) {
        violation("credit-overflow",
                  "output VC holds " + std::to_string(ovc.credits) +
                      " credits with buffer depth " + std::to_string(depth));
      }
      if (((router.out_credit_words_[p] & bits::bit(v)) != 0) !=
          (ovc.credits > 0)) {
        violation("credit-word",
                  "credit word bit disagrees with the output VC's " +
                      std::to_string(ovc.credits) + " credits");
      }
      const bool allocated = (router.out_alloc_words_[p] & bits::bit(v)) != 0;
      const int holders = owners[p * vcs + v];
      if (allocated && holders != 1) {
        violation("vc-ownership",
                  "allocated output VC is held by " +
                      std::to_string(holders) + " input VCs");
      }
      if (!allocated && holders != 0) {
        violation("vc-ownership",
                  "free output VC is referenced by an active input VC");
      }
    }
  }
}

void InvariantChecker::check_link_credits(const Network& net) {
  const Cycle now = net.now_;

  auto count_flits = [](const Channel<Flit>& ch, int vc) {
    std::size_t n = 0;
    ch.for_each([&](const Flit& f) { n += f.vc == vc ? 1 : 0; });
    return n;
  };
  auto count_credits = [](const Channel<Credit>& ch, int vc) {
    std::size_t n = 0;
    ch.for_each([&](const Credit& c) { n += c.vc == vc ? 1 : 0; });
    return n;
  };
  // Inter-router links: the credit loop for (link, vc) spans the upstream
  // credit counter, the flits in flight on the link (the channel also holds
  // the folded switch-traversal stage), the downstream input buffer, and the
  // credits on their way back. The sum must equal the buffer depth at every
  // step boundary.
  for (const Network::LinkWiring& lw : net.link_wirings_) {
    ++checks_;
    const Router& up =
        *net.routers_[static_cast<std::size_t>(lw.spec.src_router)];
    const Router& down =
        *net.routers_[static_cast<std::size_t>(lw.spec.dst_router)];
    const std::size_t depth = up.cfg_.buffer_depth;
    const auto src_port = static_cast<std::size_t>(lw.spec.src_port);
    const auto dst_port = static_cast<std::size_t>(lw.spec.dst_port);
    for (std::size_t v = 0; v < up.vcs_; ++v) {
      const int vc = static_cast<int>(v);
      const std::size_t sum =
          up.output_vcs_[src_port * up.vcs_ + v].credits +
          count_flits(*lw.flits, vc) +
          down.input_vcs_[dst_port * down.vcs_ + v].buffer.size() +
          count_credits(*lw.credits, vc);
      if (sum != depth) {
        report(InvariantViolation{
            now, lw.spec.src_router, lw.spec.src_port, vc,
            "credit-conservation",
            "credit loop to router " + std::to_string(lw.spec.dst_router) +
                " port " + std::to_string(lw.spec.dst_port) + " sums to " +
                std::to_string(sum) + ", expected buffer depth " +
                std::to_string(depth)});
      }
    }
  }

  // Terminal links, same accounting on both directions of the interface.
  for (const Network::TerminalWiring& tw : net.terminal_wirings_) {
    ++checks_;
    const Router& router = *net.routers_[static_cast<std::size_t>(tw.router)];
    const Terminal& term =
        *net.terminals_[static_cast<std::size_t>(tw.terminal)];
    const std::size_t depth = router.cfg_.buffer_depth;
    const auto port = static_cast<std::size_t>(tw.port);
    for (std::size_t v = 0; v < router.vcs_; ++v) {
      const int vc = static_cast<int>(v);
      const std::size_t inj_sum =
          term.credits_[v] + count_flits(*tw.inj_flits, vc) +
          router.input_vcs_[port * router.vcs_ + v].buffer.size() +
          count_credits(*tw.inj_credits, vc);
      if (inj_sum != depth) {
        report(InvariantViolation{
            now, tw.router, tw.port, vc, "credit-conservation",
            "injection credit loop from terminal " +
                std::to_string(tw.terminal) + " sums to " +
                std::to_string(inj_sum) + ", expected buffer depth " +
                std::to_string(depth)});
      }
      const std::size_t ej_sum =
          router.output_vcs_[port * router.vcs_ + v].credits +
          count_flits(*tw.ej_flits, vc) + count_credits(*tw.ej_credits, vc);
      if (ej_sum != depth) {
        report(InvariantViolation{
            now, tw.router, tw.port, vc, "credit-conservation",
            "ejection credit loop to terminal " +
                std::to_string(tw.terminal) + " sums to " +
                std::to_string(ej_sum) + ", expected buffer depth " +
                std::to_string(depth)});
      }
    }
  }
}

void InvariantChecker::check_flit_conservation(const Network& net) {
  ++checks_;
  const std::uint64_t injected = net.flits_injected();
  const std::uint64_t ejected = net.flits_ejected();
  std::uint64_t in_network = 0;
  for (const auto& router : net.routers_) in_network += router->buffered_flits();
  for (const auto& ch : net.flit_channels_) in_network += ch->size();
  if (injected != ejected + in_network) {
    report(InvariantViolation{
        net.now_, -1, -1, -1, "flit-conservation",
        std::to_string(injected) + " flits injected but " +
            std::to_string(ejected) + " ejected + " +
            std::to_string(in_network) + " in flight"});
  }
}

void InvariantChecker::check_progress(const Network& net) {
  ++checks_;
  std::uint64_t in_network = 0;
  for (const auto& router : net.routers_) in_network += router->buffered_flits();
  for (const auto& ch : net.flit_channels_) in_network += ch->size();

  // Any flit movement bumps one of these counters within a bounded number of
  // cycles (a channel traversal takes at most the link latency). If none of
  // them move for the whole horizon while flits sit in the network, nothing
  // is making progress: deadlock or a stuck allocator.
  std::uint64_t signature = net.flits_injected() + net.flits_ejected();
  for (const auto& router : net.routers_) signature += router->stats_.flits_routed;

  if (in_network == 0 || signature != last_progress_signature_) {
    last_progress_signature_ = signature;
    last_progress_cycle_ = net.now_;
    return;
  }
  if (net.now_ - last_progress_cycle_ >= cfg_.deadlock_cycles) {
    report(InvariantViolation{
        net.now_, -1, -1, -1, "deadlock",
        std::to_string(in_network) + " flits in flight with no movement for " +
            std::to_string(cfg_.deadlock_cycles) + " cycles"});
    // Rearm so a non-aborting handler is not flooded every cycle after.
    last_progress_cycle_ = net.now_;
  }
}

}  // namespace nocalloc::noc
