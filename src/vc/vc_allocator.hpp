// VC allocators (Becker & Dally Sec. 4, Fig. 3).
//
// The VC allocator matches the P x V input VCs of a router to the P x V
// output VCs, subject to the structural constraint that all output VCs a
// given input VC may request in one cycle live at a single output port (the
// one chosen by the routing function).
//
// The caller (router or quality harness) supplies, per input VC, the
// destination output port and a V-wide candidate mask over that port's VCs.
// The mask already encodes message class, allowed resource-class transitions
// and output-VC availability; the allocator's job is purely the matching.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "alloc/allocator.hpp"
#include "arbiter/arbiter.hpp"
#include "common/bit_matrix.hpp"
#include "vc/vc_partition.hpp"

namespace nocalloc {

/// One input VC's VC-allocation request.
struct VcRequest {
  bool valid = false;   // head flit waiting for an output VC
  int out_port = -1;    // destination output port (from routing)
  ReqVector vc_mask;    // V-wide candidate mask over out_port's VCs
};

/// One waiting head's request in the sparse form the router's VA stage
/// issues: input VC index, destination port, and the candidate mask packed
/// into a single word (V <= 64). A zero mask is a valid entry (all candidate
/// VCs taken) and grants nothing, exactly like a valid VcRequest with an
/// empty mask.
struct FastVcRequest {
  std::uint32_t input = 0;
  std::uint32_t out_port = 0;
  bits::Word vc_mask = 0;
};

/// Every allocator implements at least one of the two allocation entries:
/// production families override allocate_sparse(), the one virtual entry
/// the router and the quality harness call; dense allocate() is a packing
/// wrapper around it. A subclass that implements only the dense entry (a
/// forwarding decorator) is reached through allocate_sparse()'s default
/// sparse-to-dense adapter. A subclass that overrides neither would recurse
/// between the two base bodies.
class VcAllocator {
 public:
  /// Rejects shapes whose port's VCs, or whose ports, do not fit one word
  /// (V > 64 or P > 64): the sparse request form is single-word.
  VcAllocator(std::size_t ports, std::size_t vcs);
  virtual ~VcAllocator() = default;

  std::size_t ports() const { return ports_; }
  std::size_t vcs() const { return vcs_; }
  std::size_t total() const { return ports_ * vcs_; }

  /// Performs one cycle of VC allocation. `req` has one entry per input VC
  /// (global index port * V + vc). On return, `grant[i]` holds the granted
  /// global output VC for input VC i, or -1. The result is a matching: no
  /// output VC is granted twice and each input VC receives at most one VC
  /// from its candidate mask. Default: validates each valid request while
  /// packing it into FastVcRequests (any nonzero mask byte is a set bit),
  /// resets `grant` and runs allocate_sparse() -- the only place dense
  /// requests are validated.
  virtual void allocate(const std::vector<VcRequest>& req,
                        std::vector<int>& grant);

  /// One cycle of VC allocation in sparse form, the entry point the router
  /// uses: bit-identical to allocate() over the equivalent dense requests in
  /// grants and priority-state evolution (rotating-priority architectures
  /// advance exactly as one allocate() would, even for n == 0). Families
  /// run their single-word kernel, or their byte-loop oracle when
  /// reference_path() is set. Default: the sparse-to-dense adapter for
  /// subclasses that implement only allocate().
  /// Contract: `grant` has total() entries, all -1 on entry (the caller
  /// resets the entries it reads back), requests are ascending by input
  /// index, and grants land at grant[input].
  virtual void allocate_sparse(const FastVcRequest* req, std::size_t n,
                               std::vector<int>& grant);

  /// Resets priority state.
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
  /// Expands the sparse requests into one dense VcRequest per input VC
  /// (member scratch), runs `f` on that vector, then invalidates exactly the
  /// entries set here. The default adapter and the families' byte-loop
  /// oracles read dense requests through this one expansion.
  template <typename F>
  void with_dense_requests(const FastVcRequest* req, std::size_t n, F&& f) {
    expand_sparse(req, n);
    f(static_cast<const std::vector<VcRequest>&>(dense_req_));
    for (std::size_t k = 0; k < n; ++k) dense_req_[req[k].input].valid = false;
  }

  /// Expands per-input-VC requests into a (P*V) x (P*V) request matrix.
  void expand_requests(const std::vector<VcRequest>& req, BitMatrix& out) const;

 private:
  void expand_sparse(const FastVcRequest* req, std::size_t n);

  std::size_t ports_;
  std::size_t vcs_;
  bool reference_path_ = false;
  // Dense scratch for with_dense_requests(); sized on first use, so the
  // kernel path never pays for it.
  std::vector<VcRequest> dense_req_;
  // Sparse scratch for the dense allocate() wrapper.
  std::vector<FastVcRequest> packed_req_;
};

/// Configuration for a VC allocator instance. The partition is carried along
/// so the hardware model can derive the sparse structure for the same design.
struct VcAllocatorConfig {
  std::size_t ports = 0;
  VcPartition partition;
  AllocatorKind kind = AllocatorKind::kSeparableInputFirst;
  ArbiterKind arb = ArbiterKind::kRoundRobin;
  /// When true, the wavefront variant is assembled as M independent
  /// per-message-class blocks (the sparse structure of Sec. 4.2) instead of
  /// one monolithic PV x PV block. Matching results are equivalent; the flag
  /// exists so tests can validate that equivalence and so the behavioural
  /// model mirrors the structure the hardware generators cost out.
  bool sparse = false;
};

std::unique_ptr<VcAllocator> make_vc_allocator(const VcAllocatorConfig& cfg);

}  // namespace nocalloc
