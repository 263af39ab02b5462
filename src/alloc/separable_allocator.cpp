#include "alloc/separable_allocator.hpp"

namespace nocalloc {

SeparableInputFirstAllocator::SeparableInputFirstAllocator(std::size_t inputs,
                                                           std::size_t outputs,
                                                           ArbiterKind arb)
    : Allocator(inputs, outputs),
      input_arb_(arb, inputs, outputs),
      output_arb_(arb, outputs, inputs) {}

void SeparableInputFirstAllocator::allocate(const BitMatrix& req,
                                            BitMatrix& gnt) {
  prepare(req, gnt);

  // Stage 1: each input selects a single output to bid on.
  std::vector<int> input_choice(inputs(), -1);
  ReqVector row(outputs(), 0);
  for (std::size_t i = 0; i < inputs(); ++i) {
    for (std::size_t j = 0; j < outputs(); ++j) row[j] = req.get(i, j) ? 1 : 0;
    input_choice[i] = input_arb_.pick_bytes(i, row);
  }

  // Stage 2: each output arbitrates among the inputs that selected it.
  ReqVector col(inputs(), 0);
  for (std::size_t j = 0; j < outputs(); ++j) {
    bool any = false;
    for (std::size_t i = 0; i < inputs(); ++i) {
      const bool bid = input_choice[i] == static_cast<int>(j);
      col[i] = bid ? 1 : 0;
      any = any || bid;
    }
    if (!any) continue;
    const int winner = output_arb_.pick_bytes(j, col);
    NOCALLOC_CHECK(winner >= 0);
    gnt.set(static_cast<std::size_t>(winner), j);
    // Second-stage grants are final: update both the output arbiter and the
    // winning input arbiter (whose stage-1 grant just succeeded).
    output_arb_.update(j, winner);
    input_arb_.update(static_cast<std::size_t>(winner), static_cast<int>(j));
  }
}

void SeparableInputFirstAllocator::reset() {
  input_arb_.reset();
  output_arb_.reset();
}

SeparableOutputFirstAllocator::SeparableOutputFirstAllocator(
    std::size_t inputs, std::size_t outputs, ArbiterKind arb)
    : Allocator(inputs, outputs),
      output_arb_(arb, outputs, inputs),
      input_arb_(arb, inputs, outputs) {}

void SeparableOutputFirstAllocator::allocate(const BitMatrix& req,
                                             BitMatrix& gnt) {
  prepare(req, gnt);

  // Stage 1: every output picks among all requesting inputs.
  std::vector<int> output_choice(outputs(), -1);
  ReqVector col(inputs(), 0);
  for (std::size_t j = 0; j < outputs(); ++j) {
    bool any = false;
    for (std::size_t i = 0; i < inputs(); ++i) {
      col[i] = req.get(i, j) ? 1 : 0;
      any = any || col[i];
    }
    if (any) output_choice[j] = output_arb_.pick_bytes(j, col);
  }

  // Stage 2: each input picks among the outputs that selected it.
  ReqVector row(outputs(), 0);
  for (std::size_t i = 0; i < inputs(); ++i) {
    bool any = false;
    for (std::size_t j = 0; j < outputs(); ++j) {
      const bool offered = output_choice[j] == static_cast<int>(i);
      row[j] = offered ? 1 : 0;
      any = any || offered;
    }
    if (!any) continue;
    const int winner = input_arb_.pick_bytes(i, row);
    NOCALLOC_CHECK(winner >= 0);
    gnt.set(i, static_cast<std::size_t>(winner));
    input_arb_.update(i, winner);
    output_arb_.update(static_cast<std::size_t>(winner), static_cast<int>(i));
  }
}

void SeparableOutputFirstAllocator::reset() {
  output_arb_.reset();
  input_arb_.reset();
}

}  // namespace nocalloc
