// Word-level bit manipulation primitives for the packed BitMatrix rows and
// the allocators' single-word sparse kernels.
//
// Request vectors and matrix rows are packed into little-endian arrays of
// 64-bit words (bit i of word w represents element w * 64 + i). The helpers
// here are the vocabulary those paths share: low-bit masks, find-first-set,
// population count, and set-bit iteration. Everything compiles to single
// instructions (AND/OR/TZCNT/POPCNT) on the targets we care about.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace nocalloc::bits {

using Word = std::uint64_t;
inline constexpr std::size_t kWordBits = 64;

/// Number of words needed to hold `nbits` bits.
constexpr std::size_t word_count(std::size_t nbits) {
  return (nbits + kWordBits - 1) / kWordBits;
}

/// Word index / intra-word position of bit i.
constexpr std::size_t word_of(std::size_t i) { return i / kWordBits; }
constexpr Word bit(std::size_t i) { return Word{1} << (i % kWordBits); }

/// Whether bit i of a packed word array is set.
constexpr bool test(const Word* words, std::size_t i) {
  return (words[word_of(i)] & bit(i)) != 0;
}

/// Mask with the lowest `n` bits set (all ones when n >= 64).
constexpr Word low_mask(std::size_t n) {
  return n >= kWordBits ? ~Word{0} : (Word{1} << n) - 1;
}

/// Index of the lowest set bit across `nwords` words, or -1 if all zero.
inline int find_first(const Word* words, std::size_t nwords) {
  for (std::size_t w = 0; w < nwords; ++w) {
    if (words[w] != 0) {
      return static_cast<int>(w * kWordBits +
                              static_cast<std::size_t>(std::countr_zero(words[w])));
    }
  }
  return -1;
}

/// Population count across `nwords` words.
inline std::size_t count(const Word* words, std::size_t nwords) {
  std::size_t n = 0;
  for (std::size_t w = 0; w < nwords; ++w) {
    n += static_cast<std::size_t>(std::popcount(words[w]));
  }
  return n;
}

/// True if any bit is set.
inline bool any(const Word* words, std::size_t nwords) {
  for (std::size_t w = 0; w < nwords; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

/// Invokes fn(index) for every set bit in ascending order.
template <typename Fn>
inline void for_each_set(const Word* words, std::size_t nwords, Fn&& fn) {
  for (std::size_t w = 0; w < nwords; ++w) {
    Word cur = words[w];
    while (cur != 0) {
      const std::size_t i =
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(cur));
      fn(i);
      cur &= cur - 1;  // clear lowest set bit
    }
  }
}

}  // namespace nocalloc::bits
