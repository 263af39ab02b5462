// Lightweight runtime checks used across the library.
//
// NOCALLOC_CHECK is active in all build types: the simulator and the hardware
// model both rely on structural invariants (matrix shapes, port ranges) whose
// violation would silently corrupt results, so they are always verified.
//
// NOCALLOC_DCHECK guards per-element accesses inside hot loops (BitMatrix
// get/set, word indexing). It compiles to the same abort as NOCALLOC_CHECK in
// Debug and sanitizer builds, and to nothing in optimized builds, where the
// structural NOCALLOC_CHECKs on shapes and port ranges already bound every
// index that feeds the element accessors. Sanitizer builds opt in via the
// NOCALLOC_FORCE_DCHECK definition (set by CMake when SANITIZE is non-empty)
// even though they compile with NDEBUG.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace nocalloc {

[[noreturn]] inline void check_fail(const char* expr, const char* file, int line) {
  std::fprintf(stderr, "nocalloc: check failed: %s (%s:%d)\n", expr, file, line);
  std::abort();
}

/// Aborts with a message saying what was wrong. For bad input (configs,
/// unsupported shapes), where the reader needs the offending key or value
/// rather than the failed expression.
[[noreturn]] inline void fail(const std::string& message) {
  std::fprintf(stderr, "nocalloc: %s\n", message.c_str());
  std::abort();
}

}  // namespace nocalloc

#define NOCALLOC_CHECK(expr)                                      \
  do {                                                            \
    if (!(expr)) ::nocalloc::check_fail(#expr, __FILE__, __LINE__); \
  } while (false)

#if !defined(NDEBUG) || defined(NOCALLOC_FORCE_DCHECK)
#define NOCALLOC_DCHECK_ENABLED 1
#define NOCALLOC_DCHECK(expr) NOCALLOC_CHECK(expr)
#else
#define NOCALLOC_DCHECK_ENABLED 0
#define NOCALLOC_DCHECK(expr) \
  do {                        \
  } while (false)
#endif
