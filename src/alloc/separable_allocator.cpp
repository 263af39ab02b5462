#include "alloc/separable_allocator.hpp"

namespace nocalloc {

namespace {

/// Arbiter k's pick among the set bits of a packed row, through `bytes`
/// (width() entries, all zero before and after); -1 when the row is empty.
int pick_row(const ArbiterBank& bank, std::size_t k, const BitMatrix& m,
             std::size_t r, ReqVector& bytes) {
  const bits::Word* row = m.row(r);
  if (!bits::any(row, m.words_per_row())) return -1;
  bits::for_each_set(row, m.words_per_row(),
                     [&](std::size_t c) { bytes[c] = 1; });
  const int winner = bank.pick_bytes(k, bytes);
  NOCALLOC_CHECK(winner >= 0);
  bits::for_each_set(row, m.words_per_row(),
                     [&](std::size_t c) { bytes[c] = 0; });
  return winner;
}

}  // namespace

SeparableInputFirstAllocator::SeparableInputFirstAllocator(std::size_t inputs,
                                                           std::size_t outputs,
                                                           ArbiterKind arb)
    : Allocator(inputs, outputs),
      input_arb_(arb, inputs, outputs),
      output_arb_(arb, outputs, inputs),
      bids_(outputs, inputs),
      input_bytes_(inputs, 0),
      output_bytes_(outputs, 0) {}

void SeparableInputFirstAllocator::allocate(const BitMatrix& req,
                                            BitMatrix& gnt) {
  prepare(req, gnt);

  // Stage 1: each input selects a single output to bid on.
  bids_.clear();
  for (std::size_t i = 0; i < inputs(); ++i) {
    const int choice = pick_row(input_arb_, i, req, i, output_bytes_);
    if (choice >= 0) bids_.set(static_cast<std::size_t>(choice), i);
  }

  // Stage 2: each output arbitrates among the inputs that selected it.
  for (std::size_t j = 0; j < outputs(); ++j) {
    const int winner = pick_row(output_arb_, j, bids_, j, input_bytes_);
    if (winner < 0) continue;
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
      input_arb_(arb, inputs, outputs),
      requests_by_output_(outputs, inputs),
      offers_(inputs, outputs),
      input_bytes_(inputs, 0),
      output_bytes_(outputs, 0) {}

void SeparableOutputFirstAllocator::allocate(const BitMatrix& req,
                                             BitMatrix& gnt) {
  prepare(req, gnt);

  // Stage 1: every output picks among all requesting inputs.
  requests_by_output_.clear();
  for (std::size_t i = 0; i < inputs(); ++i) {
    bits::for_each_set(req.row(i), req.words_per_row(),
                       [&](std::size_t j) { requests_by_output_.set(j, i); });
  }
  offers_.clear();
  for (std::size_t j = 0; j < outputs(); ++j) {
    const int choice =
        pick_row(output_arb_, j, requests_by_output_, j, input_bytes_);
    if (choice >= 0) offers_.set(static_cast<std::size_t>(choice), j);
  }

  // Stage 2: each input picks among the outputs that selected it.
  for (std::size_t i = 0; i < inputs(); ++i) {
    const int winner = pick_row(input_arb_, i, offers_, i, output_bytes_);
    if (winner < 0) continue;
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
