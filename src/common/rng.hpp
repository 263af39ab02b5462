// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (traffic injection, request-matrix
// generation, routing tie-breaks) draw from seeded Rng instances so that every
// experiment is reproducible bit-for-bit. The generator is xoshiro256**, which
// is fast, has a 256-bit state and passes BigCrush; quality matters here
// because the open-loop experiments draw ~10^7 variates per configuration.
// The draws are inline: the open-loop harness makes one per request-matrix
// entry, where an out-of-line call would cost as much as the draw itself.
#pragma once

#include <bit>
#include <cstdint>

#include "common/snapshot.hpp"

namespace nocalloc {

/// xoshiro256** generator with splitmix64 seeding.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initializes the state from a 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed);

  /// Returns the next 64-bit variate.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  std::uint64_t operator()() { return next(); }

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ull; }

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased (rejection).
  std::uint64_t next_below(std::uint64_t bound) {
    // Lemire-style rejection to avoid modulo bias.
    const std::uint64_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Derives an independent stream for a child component. Mixing the label
  /// through splitmix64 decorrelates sibling streams.
  Rng split(std::uint64_t label);

  /// Saves or loads the raw 256-bit state for warm snapshot/restore; a
  /// loaded generator resumes the stream exactly where the saved one left
  /// off.
  void state(StateArchive& ar) { ar.pod_array(s_, 4); }

 private:
  std::uint64_t s_[4];
};

}  // namespace nocalloc
