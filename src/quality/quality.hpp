// Open-loop matching-quality measurement (Sec. 3.1, Figs. 7 and 12).
//
// The paper drives each isolated allocator RTL with 10,000 pseudo-random
// request matrices per load point and divides the number of grants by what a
// maximum-size allocator achieves on the same sequence. We reproduce that
// protocol exactly: request generation is independent per input VC (the
// paper notes in Sec. 5.3.3 that this yields request rates above what a
// closed-loop network would sustain -- which is why matching-quality
// differences overstate network-level differences).
//
// Both protocols issue requests in the allocators' sparse form, the entry
// the router uses, so each family's single-word kernel runs with no dense
// round trip: one FastVcRequest per requesting input VC (input, output port,
// the C-bit mask of the chosen class shifted to its base), or per input port
// one requesting-VC word plus an output-port byte per requesting VC. Draws
// run in input-VC order: a Bernoulli trial, then for a requester its output
// port and (VC protocol) its target class, so a seed fixes every matrix.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "sa/switch_allocator.hpp"
#include "vc/vc_allocator.hpp"

namespace nocalloc::quality {

struct QualityResult {
  double rate = 0.0;              // requests per VC per cycle (x-axis)
  std::uint64_t grants = 0;       // grants by the allocator under test
  std::uint64_t max_grants = 0;   // grants by the maximum-size reference
  double quality() const {
    return max_grants == 0
               ? 1.0
               : static_cast<double>(grants) / static_cast<double>(max_grants);
  }
};

/// VC-allocation experiment (Fig. 7). Per trial, every input VC requests
/// with probability `rate`; a requesting VC picks a uniform destination
/// output port and one (message class, resource class) pair legal under the
/// partition, requesting all C VCs of that class. All output VCs are free
/// (open-loop). Runs `trials` request matrices. The maximum-size reference
/// is counted in closed form from that request structure (see quality.cpp).
/// V <= 64 and P <= 64 hold for every allocator (its constructor checks).
QualityResult measure_vc_quality(nocalloc::VcAllocator& alloc,
                                 const nocalloc::VcPartition& partition,
                                 double rate, std::size_t trials,
                                 nocalloc::Rng& rng);

/// Switch-allocation experiment (Fig. 12). Per trial, every input VC holds
/// a flit with probability `rate` destined to a uniform output port; at most
/// one VC per input port can win. Runs `trials` request matrices, scored
/// against a maximum matching of the P x P union request matrix. P <= 64
/// and V <= 64 hold for every allocator (its constructor checks).
QualityResult measure_sa_quality(nocalloc::SwitchAllocator& alloc,
                                 double rate, std::size_t trials,
                                 nocalloc::Rng& rng);

}  // namespace nocalloc::quality
