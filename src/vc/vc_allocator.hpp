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

class VcAllocator {
 public:
  VcAllocator(std::size_t ports, std::size_t vcs)
      : ports_(ports), vcs_(vcs) {}
  virtual ~VcAllocator() = default;

  std::size_t ports() const { return ports_; }
  std::size_t vcs() const { return vcs_; }
  std::size_t total() const { return ports_ * vcs_; }

  /// Performs one cycle of VC allocation. `req` has one entry per input VC
  /// (global index port * V + vc). On return, `grant[i]` holds the granted
  /// global output VC for input VC i, or -1. The result is a matching: no
  /// output VC is granted twice and each input VC receives at most one VC
  /// from its candidate mask.
  virtual void allocate(const std::vector<VcRequest>& req,
                        std::vector<int>& grant) = 0;

  /// One cycle of VC allocation in sparse form, the entry point the router
  /// uses: bit-identical to allocate() over the equivalent dense requests in
  /// grants and priority-state evolution (rotating-priority architectures
  /// advance exactly as one allocate() would, even for n == 0). Runs the
  /// family's single-word kernel when fast_ready() and not reference_path();
  /// otherwise expands the requests into member scratch and calls
  /// allocate() (maximum-size, test doubles, and the byte-loop oracle).
  /// Contract: `grant` has total() entries, all -1 on entry (the caller
  /// resets the entries it reads back), requests are ascending by input
  /// index, and grants land at grant[input].
  void allocate_sparse(const FastVcRequest* req, std::size_t n,
                       std::vector<int>& grant);

  /// True when this instance has a single-word sparse kernel: the
  /// architecture has one and the configured dimensions/arbiters admit it.
  /// Default: no kernel (allocate_sparse adapts to allocate()).
  virtual bool fast_ready() const { return false; }

  /// Resets priority state.
  virtual void reset() = 0;

  /// Advances priority state as `cycles` empty-request allocate() calls
  /// would; see Allocator::advance_priority. Default no-op (separable and
  /// maximum-size architectures are grant-driven).
  virtual void advance_priority(std::uint64_t cycles) {
    static_cast<void>(cycles);
  }

  /// Selects the byte-loop reference implementation over the family kernel,
  /// for allocate() and allocate_sparse() alike. Both paths produce
  /// identical grants and priority-state evolution; the reference is the
  /// differential oracle (tests/test_mask_kernels, test_sim_equivalence).
  virtual void set_reference_path(bool ref) { reference_path_ = ref; }
  bool reference_path() const { return reference_path_; }

  /// Serializes / restores priority state for warm snapshot/restore; see
  /// Allocator::save_state. Defaults are no-ops (maximum-size and test
  /// doubles are stateless); stateful architectures override both.
  virtual void save_state(StateWriter& w) const { static_cast<void>(w); }
  virtual void load_state(StateReader& r) { static_cast<void>(r); }

 protected:
  /// The family kernel behind allocate_sparse(); only called when
  /// fast_ready() is true and the reference path is off.
  virtual void allocate_fast(const FastVcRequest* req, std::size_t n,
                             std::vector<int>& grant);

  /// The dense-to-sparse adapter kernel-backed allocate() overrides run
  /// first: in one pass, validates each request as prepare() does and packs
  /// the valid ones into FastVcRequests in member scratch (any nonzero mask
  /// byte is a set bit), then clears `grant` and runs allocate_fast. Returns
  /// false, touching nothing, when reference_path() is set or !fast_ready();
  /// the caller then runs prepare() and its byte-loop oracle.
  bool allocate_packed(const std::vector<VcRequest>& req,
                       std::vector<int>& grant);

  /// Validates request shape and clears the grant vector.
  void prepare(const std::vector<VcRequest>& req, std::vector<int>& grant) const;

  /// Expands per-input-VC requests into a (P*V) x (P*V) request matrix.
  void expand_requests(const std::vector<VcRequest>& req, BitMatrix& out) const;

  bool reference_path_ = false;

 private:
  std::size_t ports_;
  std::size_t vcs_;
  // Dense scratch for the allocate_sparse() adapter; sized on first use, so
  // allocators with a kernel never pay for it.
  std::vector<VcRequest> dense_req_;
  // Sparse scratch for the allocate_packed() adapter.
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
