// Cycle-level netlist simulator.
//
// Evaluates a generated netlist gate by gate, giving the hardware model a
// *functional* meaning on top of its cost meaning: the equivalence tests in
// tests/test_netlist_equivalence.cpp drive the same request vectors through
// a generated circuit and its behavioural counterpart (an ArbiterBank,
// WavefrontAllocator, ...) and demand identical grants -- the reproduction's
// substitute for RTL simulation of the paper's Verilog.
//
// State elements follow the Netlist invariant that the k-th capture() pairs
// with the k-th state(); dff(d) nodes carry their D inline.
#pragma once

#include <vector>

#include "hw/netlist.hpp"

namespace nocalloc::hw {

class NetlistSimulator {
 public:
  /// Binds to `netlist` (must outlive the simulator) and initializes all
  /// state elements to their declared power-on values. Requires every
  /// state() to have been paired with a capture().
  explicit NetlistSimulator(const Netlist& netlist);

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return netlist_.outputs().size(); }

  /// Combinationally evaluates the netlist for the given primary-input
  /// values (in input-creation order) and returns the marked outputs (in
  /// mark_output order). Does not advance state. The returned reference
  /// aliases a member buffer valid until the next evaluate()/step(), so
  /// repeated evaluation performs no heap allocation.
  const std::vector<bool>& evaluate(const std::vector<bool>& inputs);

  /// evaluate() followed by a clock edge: every state element latches its
  /// D value (captures and inline dff() fanins).
  const std::vector<bool>& step(const std::vector<bool>& inputs);

  /// Current value of a state element (by state()/dff() creation order
  /// within all flops); exposed for tests.
  bool flop(std::size_t index) const;

  /// Overwrites a state element, bypassing the clock. This is how
  /// BatchNetlistSimulator's reference path seeds the oracle with one
  /// lane's flop state before replaying that lane's vector.
  void set_flop(std::size_t index, bool value);

  /// Resets all flops to their power-on values.
  void reset();

 private:
  void propagate(const std::vector<bool>& inputs);

  const Netlist& netlist_;
  std::vector<NodeId> inputs_;  // primary inputs in creation order
  std::vector<NodeId> flops_;   // all kDff nodes in creation order
  std::vector<char> value_;     // last propagated value per node
  std::vector<char> flop_state_;
  std::vector<bool> out_;       // reused output buffer (allocation-free reuse)
};

}  // namespace nocalloc::hw
