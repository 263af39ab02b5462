// Switch allocators (Becker & Dally Sec. 5, Fig. 8).
//
// Switch allocation matches the router's P input ports to its P output ports
// for one crossbar cycle, driven by per-VC requests: each of the V VCs at an
// input port may request one output port, and at most one VC per input port
// may be granted (the port has a single crossbar input). The result is both
// a P x P port matching and, per granted input port, the winning VC.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "alloc/allocator.hpp"
#include "arbiter/arbiter.hpp"
#include "common/bit_matrix.hpp"

namespace nocalloc {

/// One input VC's switch request.
struct SwitchRequest {
  bool valid = false;  // VC has a flit ready for switch traversal
  int out_port = -1;   // output port the flit needs
};

/// Per-input-port grant.
struct SwitchGrant {
  int vc = -1;        // winning VC at this input port, or -1 if none
  int out_port = -1;  // output port granted to this input port
  bool granted() const { return vc >= 0; }
};

/// Every allocator implements at least one of the two allocation entries:
/// production families override allocate_sparse(), the one virtual entry
/// the router and the quality harness call; dense allocate() is a packing
/// wrapper around it. A subclass that implements only the dense entry (a
/// forwarding decorator) is reached through allocate_sparse()'s default
/// sparse-to-dense adapter. A subclass that overrides neither would recurse
/// between the two base bodies.
class SwitchAllocator {
 public:
  /// Rejects shapes whose port's VCs, or whose ports, do not fit one word
  /// (V > 64 or P > 64): the sparse request form is single-word.
  SwitchAllocator(std::size_t ports, std::size_t vcs);
  virtual ~SwitchAllocator() = default;

  std::size_t ports() const { return ports_; }
  std::size_t vcs() const { return vcs_; }
  std::size_t total() const { return ports_ * vcs_; }

  /// Performs one cycle of switch allocation. `req` has one entry per input
  /// VC (global index port * V + vc); `grant` receives one entry per input
  /// port. Grants form a valid port matching and each winning VC is one that
  /// requested the granted output. Default: packs the requests with
  /// pack_switch_requests, which validates them, and runs allocate_sparse()
  /// -- the only place dense requests are validated.
  virtual void allocate(const std::vector<SwitchRequest>& req,
                        std::vector<SwitchGrant>& grant);

  /// One cycle of switch allocation in sparse form, the entry point the
  /// router uses: bit-identical to allocate() over the equivalent dense
  /// requests in grants and priority-state evolution (including
  /// rotating-priority architectures, even with no request set).
  /// `vc_words[p]` holds input port p's requesting-VC mask;
  /// `out_ports[p * V + v]` the requested output port of every set bit.
  /// `grant` is fully rewritten (one entry per port). Families run their
  /// single-word kernel, or their byte-loop oracle when reference_path() is
  /// set. Default: the sparse-to-dense adapter for subclasses that
  /// implement only allocate().
  virtual void allocate_sparse(const bits::Word* vc_words,
                               const std::uint8_t* out_ports,
                               std::vector<SwitchGrant>& grant);

  virtual void reset() = 0;

  /// Advances priority state as `cycles` empty-request allocate() calls
  /// would; see Allocator::advance_priority. Default no-op (separable and
  /// maximum-size architectures are grant-driven).
  virtual void advance_priority(std::uint64_t cycles) {
    static_cast<void>(cycles);
  }

  /// Selects the family's byte-loop reference implementation over its
  /// kernel, for allocate() and allocate_sparse() alike. Both read and
  /// write the same priority state (the separable and wavefront families'
  /// arbiters live in one ArbiterBank per role) and produce identical
  /// grants; the reference is the differential oracle
  /// (tests/test_mask_kernels, test_sim_equivalence).
  void set_reference_path(bool ref) { reference_path_ = ref; }
  bool reference_path() const { return reference_path_; }

  /// Saves or loads priority state for warm snapshot/restore; see
  /// Allocator::state. The default is a no-op (maximum-size and test
  /// doubles are stateless); stateful architectures override it.
  virtual void state(StateArchive& ar) { static_cast<void>(ar); }

 protected:
  /// Expands the sparse requests into one dense SwitchRequest per input VC
  /// (member scratch), runs `f` on that vector, then invalidates exactly the
  /// entries set here. The default adapter and the families' byte-loop
  /// oracles read dense requests through this one expansion.
  template <typename F>
  void with_dense_requests(const bits::Word* vc_words,
                           const std::uint8_t* out_ports, F&& f) {
    expand_sparse(vc_words, out_ports);
    f(static_cast<const std::vector<SwitchRequest>&>(dense_req_));
    for (std::size_t p = 0; p < ports_; ++p) {
      bits::for_each_set(&vc_words[p], 1, [&](std::size_t v) {
        dense_req_[p * vcs_ + v].valid = false;
      });
    }
  }

  /// P x P union request matrix: entry (p, o) set iff any VC at input port p
  /// requests output port o.
  void port_requests(const std::vector<SwitchRequest>& req,
                     BitMatrix& out) const;

 private:
  void expand_sparse(const bits::Word* vc_words, const std::uint8_t* out_ports);

  std::size_t ports_;
  std::size_t vcs_;
  bool reference_path_ = false;
  // Dense scratch for with_dense_requests(); sized on first use, so the
  // kernel path never pays for it.
  std::vector<SwitchRequest> dense_req_;
  // Sparse scratch for the dense allocate() wrapper.
  std::vector<bits::Word> packed_words_;
  std::vector<std::uint8_t> packed_out_;
};

/// Packs `ports` x `vcs` dense requests into allocate_sparse's layout:
/// `vc_words[p]` receives input port p's requesting-VC mask and
/// `out_ports[p * vcs + v]` the output port of each requesting VC (entries
/// of idle VCs are left as they were). Checks the request count and every
/// valid request's out_port. Requires vcs <= 64 and ports <= 64;
/// `vc_words` holds `ports` entries and `out_ports` ports * vcs.
void pack_switch_requests(const std::vector<SwitchRequest>& req,
                          std::size_t ports, std::size_t vcs,
                          bits::Word* vc_words, std::uint8_t* out_ports);

struct SwitchAllocatorConfig {
  std::size_t ports = 0;
  std::size_t vcs = 0;
  AllocatorKind kind = AllocatorKind::kSeparableInputFirst;
  ArbiterKind arb = ArbiterKind::kRoundRobin;
};

std::unique_ptr<SwitchAllocator> make_switch_allocator(
    const SwitchAllocatorConfig& cfg);

}  // namespace nocalloc
