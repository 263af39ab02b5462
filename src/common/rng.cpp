#include "common/rng.hpp"

namespace nocalloc {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::split(std::uint64_t label) {
  std::uint64_t mix = next() ^ (label * 0xD1B54A32D192ED03ull);
  return Rng(mix);
}

}  // namespace nocalloc
