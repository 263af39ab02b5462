#include "arbiter/arbiter.hpp"

#include "common/check.hpp"

namespace nocalloc {

std::string to_string(ArbiterKind kind) {
  switch (kind) {
    case ArbiterKind::kRoundRobin:
      return "rr";
    case ArbiterKind::kMatrix:
      return "m";
  }
  NOCALLOC_CHECK(false);
}

}  // namespace nocalloc
