#include "circuit/builder.h"

#include <algorithm>
#include <stdexcept>

namespace deepsecure {

Builder::Builder(std::string name, bool enable_cse) : cse_(enable_cse) {
  c_.name = std::move(name);
}

Wire Builder::new_wire() { return c_.num_wires++; }

void Builder::set_known(Wire w) {
  const size_t i = w >> 6;
  if (i >= known_.size()) known_.resize(i + 1, 0);
  known_[i] |= uint64_t{1} << (w & 63);
  known_end_ = std::max(known_end_, w + 1);
}

Wire Builder::input(Party p) {
  const Wire w = new_wire();
  if (p == Party::kGarbler) {
    c_.garbler_inputs.push_back(w);
  } else {
    c_.evaluator_inputs.push_back(w);
    set_known(w);
  }
  return w;
}

std::vector<Wire> Builder::inputs(Party p, size_t n) {
  std::vector<Wire> ws(n);
  for (auto& w : ws) w = input(p);
  return ws;
}

Wire Builder::state_input() {
  const Wire w = new_wire();
  c_.state_inputs.push_back(w);
  return w;
}

std::vector<Wire> Builder::state_inputs(size_t n) {
  std::vector<Wire> ws(n);
  for (auto& w : ws) w = state_input();
  return ws;
}

void Builder::set_state_next(const std::vector<Wire>& next) {
  c_.state_next = next;
}

void Builder::set_lane(uint32_t lane) {
  if (!lanes_used_) {
    lanes_used_ = true;
    // Backfill: gates emitted before the first tag land in lane 0.
    c_.gate_lanes.assign(c_.gates.size(), 0);
  }
  lane_ = lane;
}

namespace {

// Load factor ceiling of the CSE table: it doubles once one more gate
// would fill more than 7/10 of its slots.
constexpr size_t kCseLoadNum = 7;
constexpr size_t kCseLoadDen = 10;
constexpr size_t kCseMinSlots = 1024;

inline size_t cse_hash(Wire a, Wire b, GateOp op) {
  // murmur3 fmix64 over the packed key: every key bit reaches the low
  // bits the slot mask keeps.
  return static_cast<size_t>(fmix64((static_cast<uint64_t>(a) << 32 | b) ^
                                    (static_cast<uint64_t>(op) << 62)));
}

}  // namespace

Wire Builder::emit(GateOp op, Wire a, Wire b) {
  // Canonicalize commutative operand order for CSE.
  if (a > b) std::swap(a, b);

  // Constant folding and algebraic identities — this is the netlist
  // optimization pass that stands in for synthesis-tool minimization.
  if (op == GateOp::kXor) {
    if (a == b) return kConst0;
    if (a == kConst0) return b;
    // XOR with const1 (NOT) is kept: free in GC, needed for inversion.
  } else {  // AND
    if (a == b) return a;
    if (a == kConst0) return kConst0;
    if (a == kConst1) return b;
    // Exactly one operand known: the one-row AND, known operand in b.
    // a < b here, so a past known_end_ rules both out.
    if (a < known_end_ && known(a) != known(b)) {
      op = GateOp::kAndKnown;
      if (known(a)) std::swap(a, b);
    }
  }

  if (!cse_) return push_gate(op, a, b);
  if ((c_.gates.size() + 1) * kCseLoadDen > cse_slots_.size() * kCseLoadNum)
    cse_grow();
  const size_t mask = cse_slots_.size() - 1;
  for (size_t i = cse_hash(a, b, op) & mask;; i = (i + 1) & mask) {
    const uint32_t s = cse_slots_[i];
    if (s == 0) {
      cse_slots_[i] = static_cast<uint32_t>(c_.gates.size() + 1);
      return push_gate(op, a, b);
    }
    const Gate& g = c_.gates[s - 1];
    if (g.a == a && g.b == b && g.op == op) return g.out;
  }
}

Wire Builder::push_gate(GateOp op, Wire a, Wire b) {
  const Wire out = new_wire();
  c_.gates.push_back(Gate{a, b, out, op});
  if (lanes_used_) c_.gate_lanes.push_back(lane_);
  if (op == GateOp::kXor) {
    ++xor_count_;
    // a < b (emit's canonical order), so b decides the common case.
    if (b < known_end_ && known(a) && known(b)) set_known(out);
  } else {
    ++and_count_;
  }
  return out;
}

// Doubles the table and re-inserts every gate, its key read back from
// the gate. Keys are unique, so re-insertion needs no comparisons. Each
// gate drives its own wire, so gate index + 1 fits a 32-bit slot.
void Builder::cse_grow() {
  const size_t slots = std::max(kCseMinSlots, 2 * cse_slots_.size());
  cse_slots_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (size_t g = 0; g < c_.gates.size(); ++g) {
    const Gate& gate = c_.gates[g];
    size_t i = cse_hash(gate.a, gate.b, gate.op) & mask;
    while (cse_slots_[i] != 0) i = (i + 1) & mask;
    cse_slots_[i] = static_cast<uint32_t>(g + 1);
  }
}

Wire Builder::xor_(Wire a, Wire b) { return emit(GateOp::kXor, a, b); }
Wire Builder::and_(Wire a, Wire b) { return emit(GateOp::kAnd, a, b); }

Wire Builder::or_(Wire a, Wire b) {
  // a | b = (a ^ b) ^ (a & b); one non-XOR gate.
  return xor_(xor_(a, b), and_(a, b));
}

Wire Builder::mux(Wire sel, Wire t, Wire f) {
  // f ^ sel*(t^f): one AND gate per mux.
  if (t == f) return t;
  return xor_(f, and_(sel, xor_(t, f)));
}

void Builder::output(Wire w) { c_.outputs.push_back(w); }

void Builder::outputs(const std::vector<Wire>& ws) {
  for (Wire w : ws) output(w);
}

Circuit Builder::build() {
  if (c_.state_inputs.size() != c_.state_next.size())
    throw std::logic_error(
        "builder: set_state_next must cover all state_inputs");
  c_.validate();
  return std::move(c_);
}

}  // namespace deepsecure
