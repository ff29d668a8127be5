// Circuit builder — the "logic synthesis" front end.
//
// The paper feeds Verilog through Synopsys Design Compiler with a custom
// library whose XOR area is 0 and non-XOR area is 1, so the synthesizer
// minimizes non-XOR gates. This builder plays the same role for our C++
// block generators: it lowers the {XOR, AND, NOT, OR, XNOR, MUX} basis to
// {XOR, AND}, constant-folds, and structurally hashes (CSE) so shared
// logic is emitted once — the same objective, implemented as a compiler
// instead of a commercial tool (see DESIGN.md substitution #1).
#pragma once

#include "circuit/circuit.h"

namespace deepsecure {

enum class Party : uint8_t { kGarbler, kEvaluator };

class Builder {
 public:
  explicit Builder(std::string name = "", bool enable_cse = true);

  // --- inputs ---------------------------------------------------------
  Wire input(Party p);
  std::vector<Wire> inputs(Party p, size_t n);
  /// Sequential state element: returns the cycle-(t-1) value wire; the
  /// wire driving cycle t is registered later via set_state_next.
  Wire state_input();
  std::vector<Wire> state_inputs(size_t n);
  void set_state_next(const std::vector<Wire>& next);

  // --- scheduling hints -------------------------------------------------
  /// Tag gates emitted from here on with a lane id — one independent
  /// unit of parallel work (a matvec column, an FC output neuron, a
  /// conv output pixel). The scheduling pass (circuit/schedule.h)
  /// interleaves same-level AND gates round-robin across lanes. Gates
  /// emitted before the first set_lane call carry lane 0; CSE-shared
  /// gates keep the lane of their first emission.
  void set_lane(uint32_t lane);

  // --- logic ------------------------------------------------------------
  Wire const_bit(bool v) { return v ? kConst1 : kConst0; }
  Wire xor_(Wire a, Wire b);
  Wire and_(Wire a, Wire b);
  Wire not_(Wire a) { return xor_(a, kConst1); }
  Wire xnor_(Wire a, Wire b) { return not_(xor_(a, b)); }
  Wire or_(Wire a, Wire b);   // lowered: a^b^(a&b)
  Wire nand_(Wire a, Wire b) { return not_(and_(a, b)); }
  Wire nor_(Wire a, Wire b) { return not_(or_(a, b)); }
  /// 2:1 multiplexer, one AND gate: sel ? t : f.
  Wire mux(Wire sel, Wire t, Wire f);

  // --- outputs ----------------------------------------------------------
  void output(Wire w);
  void outputs(const std::vector<Wire>& ws);

  /// Finalize. The builder must not be reused afterwards.
  Circuit build();

  /// Gate tallies so far (useful while composing large blocks).
  uint64_t and_count() const { return and_count_; }
  uint64_t xor_count() const { return xor_count_; }

  /// True if the evaluator knows `w` in plaintext: an evaluator input, or
  /// an XOR of two known wires (never a constant or an AND output). An
  /// AND with exactly one known operand is emitted as kAndKnown, and
  /// synthesis picks a block's structure by it (synth/mult.h).
  bool known(Wire w) const {
    return w < known_end_ && ((known_[w >> 6] >> (w & 63)) & 1);
  }

 private:
  Wire new_wire();
  Wire emit(GateOp op, Wire a, Wire b);
  Wire push_gate(GateOp op, Wire a, Wire b);
  void cse_grow();

  Circuit c_;
  bool cse_;
  uint32_t lane_ = 0;
  bool lanes_used_ = false;
  uint64_t and_count_ = 0;
  uint64_t xor_count_ = 0;
  // One bit per wire, set if the evaluator knows the wire in plaintext
  // (an evaluator input, or an XOR of two known wires); emit() turns an
  // AND with exactly one known operand into kAndKnown. The bitmap only
  // grows as far as the highest known wire (the Booth digit XORs of the
  // last weight multiplied): one bit per wire, 0.9 MB on b3_pp's first
  // layer, and an emit past the last known wire tests known-ness with
  // one compare against known_end_, not a load.
  void set_known(Wire w);
  std::vector<uint64_t> known_;
  Wire known_end_ = 0;  // one past the highest known wire
  // CSE table: open addressing with linear probing over a power-of-two
  // number of slots. Slot value s != 0 names c_.gates[s - 1]; 0 is empty.
  // Every emitted gate has a slot, so the key (a, b, op) is read back
  // from the gate itself and the table costs 4 bytes per slot.
  std::vector<uint32_t> cse_slots_;
};

}  // namespace deepsecure
