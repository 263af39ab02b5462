#include "arbiter/arbiter.hpp"

#include "arbiter/matrix_arbiter.hpp"
#include "arbiter/round_robin_arbiter.hpp"
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

std::unique_ptr<Arbiter> make_arbiter(ArbiterKind kind, std::size_t size) {
  switch (kind) {
    case ArbiterKind::kRoundRobin:
      return std::make_unique<RoundRobinArbiter>(size);
    case ArbiterKind::kMatrix:
      return std::make_unique<MatrixArbiter>(size);
  }
  NOCALLOC_CHECK(false);
}

}  // namespace nocalloc
