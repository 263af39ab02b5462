// Whole-string number parsing for config values, command-line arguments
// and environment variables: "5x", "-1", "+2", " 3" and "" are rejected,
// never read as a truncated or wrapped-around value.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>

namespace nocalloc {

/// True when all of `v` is one from_chars number, written to `out`.
/// from_chars takes no whitespace and no '+'; a leading '-' is rejected
/// here, so that "-0" is neither a size nor a rate.
template <typename T>
bool parse_whole(const std::string& v, T& out) {
  if (v.empty() || v.front() == '-') return false;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Whole-string parse of a decimal unsigned integer no smaller than `min`:
/// digits only (no sign, no whitespace, no junk) and in range. nullopt on
/// anything else.
inline std::optional<std::size_t> parse_size(const std::string& v,
                                             std::size_t min = 0) {
  std::size_t out = 0;
  if (!parse_whole(v, out) || out < min) return std::nullopt;
  return out;
}

/// Whole-string parse of a finite decimal number >= 0, with no sign and no
/// whitespace; nullopt on anything else.
inline std::optional<double> parse_rate(const std::string& v) {
  double out = 0.0;
  if (!parse_whole(v, out) || !std::isfinite(out)) return std::nullopt;
  return out;
}

}  // namespace nocalloc
