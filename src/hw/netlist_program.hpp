// Compiled, bit-parallel netlist evaluation.
//
// NetlistProgram levelizes a Netlist once into a flat, topologically-ordered
// op tape with dense operand indices; BatchNetlistSimulator then evaluates
// 64 independent input vectors per pass by packing one vector per bit of a
// uint64_t lane and lowering every gate to word ops -- the netlist analogue
// of the allocators' single-word kernels. The scalar NetlistSimulator
// remains available as the differential oracle behind a
// set_reference_path-style switch (the same contract the VC and switch
// allocators use).
//
// Layout:
//   - slot 0 is a reserved constant-zero word (unused operand fields point
//     here so every op can read three sources unconditionally);
//   - node id n lives in slot n + 1, so primary inputs, flop Q values and
//     constants all have fixed slots the caller can address directly;
//   - ops cover gate nodes only (kInput/kConst/kDff produce no op: inputs
//     are loaded per pass, constants are baked at reset, flop Q words are
//     committed by clock()).
//
// Clocking follows a capture/commit split: clock() first captures every
// flop's D word into a side buffer, then commits all Q slots -- so
// flop-to-flop dependencies (shift registers, swaps) latch the *old* values
// exactly like real DFFs and like NetlistSimulator::step.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hw/netlist.hpp"
#include "hw/netlist_sim.hpp"

namespace nocalloc::hw {

/// One word-parallel op of the compiled tape. `kind` is restricted to the
/// combinational gate cells; operands are slot indices into the value array.
struct NetOp {
  CellKind kind;
  std::uint32_t dst;
  std::uint32_t src[3];
};

class NetlistProgram {
 public:
  /// Compiles `netlist` (must outlive the program). Requires every state()
  /// to have been paired with a capture() and every fanin to precede its
  /// consumer -- the builder guarantees both; inject_fault_fanin graphs are
  /// rejected with a check failure.
  explicit NetlistProgram(const Netlist& netlist);

  const Netlist& netlist() const { return netlist_; }

  std::size_t num_inputs() const { return input_slots_.size(); }
  std::size_t num_outputs() const { return output_slots_.size(); }
  std::size_t num_flops() const { return flop_slots_.size(); }
  /// Size of the value array a pass runs over (node count + reserved zero).
  std::size_t num_slots() const { return num_slots_; }

  /// The levelized op tape, in evaluation order.
  const std::vector<NetOp>& ops() const { return ops_; }

  std::uint32_t input_slot(std::size_t i) const { return input_slots_[i]; }
  std::uint32_t output_slot(std::size_t i) const { return output_slots_[i]; }
  /// Q slot of flop `f` (all kDff nodes in creation order).
  std::uint32_t flop_slot(std::size_t f) const { return flop_slots_[f]; }
  /// Slot holding flop `f`'s D value after a pass: the paired capture()
  /// signal for state() flops, the inline fanin for dff(d) flops.
  std::uint32_t flop_d_slot(std::size_t f) const { return flop_d_slots_[f]; }
  /// Power-on value of flop `f`.
  bool flop_init(std::size_t f) const { return flop_init_[f] != 0; }

  /// Slot of an arbitrary node (for per-net inspection, e.g. switching-
  /// activity measurement).
  std::uint32_t slot_of_node(NodeId id) const {
    return static_cast<std::uint32_t>(id) + 1;
  }
  /// Logic level assigned during compilation: inputs/constants/flop Qs are
  /// level 0, a gate is 1 + max(fanin levels). Exposed for tests.
  std::uint32_t level_of_node(NodeId id) const {
    return levels_[static_cast<std::size_t>(id)];
  }

  /// Initializes a value array: zero word, baked constants, power-on flop
  /// values broadcast to all 64 lanes. `slots` must have num_slots() words.
  void reset_slots(std::span<std::uint64_t> slots) const;

  /// Runs the op tape over `slots` (num_slots() words). Input and flop Q
  /// slots must be loaded first; afterwards every node's word holds its
  /// combinational value for the 64 lanes.
  void run(std::uint64_t* slots) const;

 private:
  const Netlist& netlist_;
  std::size_t num_slots_ = 0;
  std::vector<NetOp> ops_;
  std::vector<std::uint32_t> levels_;
  std::vector<std::uint32_t> input_slots_;
  std::vector<std::uint32_t> output_slots_;
  std::vector<std::uint32_t> flop_slots_;
  std::vector<std::uint32_t> flop_d_slots_;
  std::vector<char> flop_init_;
  // (node-id slot, tie value) pairs baked by reset_slots().
  std::vector<std::pair<std::uint32_t, char>> constants_;
};

/// Evaluates 64 independent vectors per pass over a compiled program.
/// Lane v of every word is vector v: bit v of input word i is primary input
/// i of vector v, and likewise for outputs and flop state.
class BatchNetlistSimulator {
 public:
  static constexpr std::size_t kLanes = 64;

  /// Compiles `netlist` privately (must outlive the simulator).
  explicit BatchNetlistSimulator(const Netlist& netlist);
  /// Shares a prebuilt program (must outlive the simulator); several
  /// simulator instances can run the same tape.
  explicit BatchNetlistSimulator(const NetlistProgram& program);

  const NetlistProgram& program() const { return *program_; }
  std::size_t num_inputs() const { return program_->num_inputs(); }
  std::size_t num_outputs() const { return program_->num_outputs(); }
  std::size_t num_flops() const { return program_->num_flops(); }

  /// Combinationally evaluates all 64 lanes. `inputs` has num_inputs()
  /// words, `outputs` num_outputs() words. Does not advance flop state.
  void evaluate(std::span<const std::uint64_t> inputs,
                std::span<std::uint64_t> outputs);

  /// Clock edge for the most recent evaluate(): captures every flop's D
  /// word, then commits all Q slots (capture/commit split).
  void clock();

  /// evaluate() followed by clock().
  void step(std::span<const std::uint64_t> inputs,
            std::span<std::uint64_t> outputs);

  /// Current Q word of flop `f` (bit v = lane v's state).
  std::uint64_t flop_word(std::size_t f) const;

  /// Word value of node `id` after the last fast-path evaluate()/step().
  /// Meaningless on the reference path, which computes outputs and flop
  /// state only.
  std::uint64_t node_word(NodeId id) const {
    return slots_[program_->slot_of_node(id)];
  }

  /// Resets all lanes to the power-on flop values.
  void reset();

  /// Snapshots flop state as one word per flop. The encoding is the raw
  /// lane words, so save/restore round-trips are byte-stable.
  void save_flops(std::vector<std::uint64_t>& out) const;
  void restore_flops(std::span<const std::uint64_t> in);

  /// Routes evaluate()/step() through the scalar NetlistSimulator, one lane
  /// at a time -- the differential oracle. Bit-identical to the fast path;
  /// the same contract as the VC and switch allocators' reference path.
  void set_reference_path(bool ref);
  bool reference_path() const { return reference_path_; }

 private:
  void load_inputs(std::span<const std::uint64_t> inputs);
  void evaluate_reference(std::span<const std::uint64_t> inputs,
                          std::span<std::uint64_t> outputs, bool clock_edge);

  const NetlistProgram* program_;
  std::unique_ptr<NetlistProgram> owned_program_;
  std::vector<std::uint64_t> slots_;
  std::vector<std::uint64_t> capture_;  // D words staged by clock()
  bool reference_path_ = false;
  std::unique_ptr<NetlistSimulator> oracle_;  // created on first ref use
  std::vector<bool> oracle_in_;               // lane scratch for the oracle
};

// ---- Transpose helpers ------------------------------------------------------
// Convert between per-vector bool rows (rows[v][i] = bit i of vector v) and
// lane-packed words (bit v of words[i]). Up to 64 rows; missing lanes pack
// as zero and unpack_lanes only materializes `count` rows.

std::vector<std::uint64_t> pack_lanes(
    const std::vector<std::vector<bool>>& rows, std::size_t width);

std::vector<std::vector<bool>> unpack_lanes(
    std::span<const std::uint64_t> words, std::size_t count);

}  // namespace nocalloc::hw
