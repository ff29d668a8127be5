#include "circuit/circuit.h"

#include <stdexcept>

namespace deepsecure {
namespace {

// Dependency scan behind Circuit::gc_flush_points(). Simulates the
// batched garbling walk with an unbounded window: a gate that reads the
// output of a still-pending AND forces a drain right before it runs.
// Runtime capacity flushes only shrink the pending set, so this schedule
// stays sufficient (extra flushes are harmless no-ops for correctness and
// never change the table byte stream, which is emitted in gate order).
std::vector<uint32_t> compute_flush_points(const Circuit& c) {
  std::vector<uint32_t> points;
  std::vector<uint8_t> pending(c.num_wires, 0);
  std::vector<Wire> marked;  // wires set since the last flush point
  for (uint32_t i = 0; i < c.gates.size(); ++i) {
    const Gate& g = c.gates[i];
    if (!marked.empty() && (pending[g.a] || pending[g.b])) {
      points.push_back(i);
      for (Wire w : marked) pending[w] = 0;
      marked.clear();
    }
    if (g.op != GateOp::kXor) {
      pending[g.out] = 1;
      marked.push_back(g.out);
    }
  }
  return points;
}

}  // namespace

std::shared_ptr<const std::vector<uint32_t>> Circuit::gc_flush_points() const {
  std::lock_guard<std::mutex> lock(cache_lock_.mu);
  if (!gc_flush_cache_ || gc_flush_cache_gates_ != gates.size()) {
    gc_flush_cache_ = std::make_shared<const std::vector<uint32_t>>(
        compute_flush_points(*this));
    gc_flush_cache_gates_ = gates.size();
  }
  return gc_flush_cache_;
}

Circuit& Circuit::operator=(const Circuit& o) {
  if (this == &o) return *this;
  name = o.name;
  gates = o.gates;
  gate_lanes = o.gate_lanes;
  garbler_inputs = o.garbler_inputs;
  evaluator_inputs = o.evaluator_inputs;
  state_inputs = o.state_inputs;
  state_next = o.state_next;
  outputs = o.outputs;
  num_wires = o.num_wires;
  walked_ = o.walked_;
  gc_flush_cache_.reset();  // recomputed lazily; see header
  gc_flush_cache_gates_ = 0;
  gc_sched_cache_.reset();
  gc_sched_cache_gates_ = 0;
  return *this;
}

CircuitStats Circuit::stats() const {
  CircuitStats s;
  // Counted arithmetically, not by a three-way branch: in a walked
  // view the two AND ops interleave within a level.
  static_assert(static_cast<int>(GateOp::kXor) == 0 &&
                static_cast<int>(GateOp::kAnd) == 1 &&
                static_cast<int>(GateOp::kAndKnown) == 2);
  uint64_t op_sum = 0, and_plain = 0;
  for (const Gate& g : gates) {
    const auto op = static_cast<uint8_t>(g.op);
    op_sum += op;
    and_plain += op & 1;
  }
  s.num_and_known = (op_sum - and_plain) / 2;
  s.num_and = and_plain + s.num_and_known;
  s.num_xor = gates.size() - s.num_and;
  s.num_wires = num_wires;
  s.num_inputs = garbler_inputs.size() + evaluator_inputs.size() +
                 state_inputs.size();
  s.num_outputs = outputs.size();
  return s;
}

BitVec Circuit::eval(const BitVec& garbler_bits, const BitVec& evaluator_bits,
                     BitVec* state) const {
  if (garbler_bits.size() != garbler_inputs.size())
    throw std::invalid_argument("garbler input size mismatch");
  if (evaluator_bits.size() != evaluator_inputs.size())
    throw std::invalid_argument("evaluator input size mismatch");
  if (state != nullptr && !state->empty() &&
      state->size() != state_inputs.size())
    throw std::invalid_argument("state size mismatch");

  BitVec w(num_wires, 0);
  w[kConst1] = 1;
  for (size_t i = 0; i < garbler_inputs.size(); ++i)
    w[garbler_inputs[i]] = garbler_bits[i] & 1u;
  for (size_t i = 0; i < evaluator_inputs.size(); ++i)
    w[evaluator_inputs[i]] = evaluator_bits[i] & 1u;
  if (state != nullptr && !state->empty())
    for (size_t i = 0; i < state_inputs.size(); ++i)
      w[state_inputs[i]] = (*state)[i] & 1u;

  for (const Gate& g : gates) {
    const uint8_t a = w[g.a];
    const uint8_t b = w[g.b];
    w[g.out] = (g.op == GateOp::kXor) ? (a ^ b) : (a & b);
  }

  if (state != nullptr) {
    state->resize(state_next.size());
    for (size_t i = 0; i < state_next.size(); ++i)
      (*state)[i] = w[state_next[i]];
  }

  BitVec out(outputs.size());
  for (size_t i = 0; i < outputs.size(); ++i) out[i] = w[outputs[i]];
  return out;
}

void Circuit::validate() const {
  if (state_inputs.size() != state_next.size())
    throw std::logic_error("state_inputs/state_next size mismatch");
  if (!gate_lanes.empty() && gate_lanes.size() != gates.size())
    throw std::logic_error("gate_lanes/gates size mismatch");
  // Per wire: 0 = undefined, kDefined, or kDefined | kKnown for a wire
  // the evaluator knows in plaintext (evaluator inputs, XORs of known
  // wires).
  constexpr uint8_t kDefined = 1, kKnown = 2;
  std::vector<uint8_t> defined(num_wires, 0);
  defined[kConst0] = defined[kConst1] = kDefined;
  auto mark_input = [&](Wire wid, uint8_t state) {
    if (wid >= num_wires) throw std::logic_error("input wire out of range");
    if (defined[wid]) throw std::logic_error("input wire aliased");
    defined[wid] = state;
  };
  for (Wire wid : garbler_inputs) mark_input(wid, kDefined);
  for (Wire wid : evaluator_inputs) mark_input(wid, kDefined | kKnown);
  for (Wire wid : state_inputs) mark_input(wid, kDefined);

  // Every Builder::build() runs this pass at set-up. The stored byte is
  // a constant except for a known XOR (rare), so a gate's store never
  // waits on its own loads: a chain of gates would otherwise serialize
  // through memory. The kAndKnown test is folded branch-free, since the
  // ops interleave: op & kKnown is set only for kAndKnown, and survives
  // & ~db only when b is not known.
  static_assert(static_cast<uint8_t>(GateOp::kAndKnown) == kKnown &&
                (static_cast<uint8_t>(GateOp::kAnd) & kKnown) == 0 &&
                (static_cast<uint8_t>(GateOp::kXor) & kKnown) == 0);
  uint8_t unknown_b = 0;  // kKnown bit: some kAndKnown reads an unknown b
  for (const Gate& g : gates) {
    if (g.a >= num_wires || g.b >= num_wires || g.out >= num_wires)
      throw std::logic_error("gate wire out of range");
    const uint8_t da = defined[g.a], db = defined[g.b];
    if (!da || !db)
      throw std::logic_error("gate input not yet defined (not topological)");
    if (defined[g.out]) throw std::logic_error("gate output redefined");
    unknown_b |= static_cast<uint8_t>(static_cast<uint8_t>(g.op) & ~db);
    defined[g.out] = kDefined;
    if ((da & db & kKnown) && g.op == GateOp::kXor)
      defined[g.out] = kDefined | kKnown;
  }
  if (unknown_b & kKnown)
    throw std::logic_error("kAndKnown operand b is not evaluator-known");
  for (Wire wid : outputs)
    if (wid >= num_wires || !defined[wid])
      throw std::logic_error("undefined output wire");
  for (Wire wid : state_next)
    if (wid >= num_wires || !defined[wid])
      throw std::logic_error("undefined state_next wire");
}

BitVec eval_sequential(const Circuit& step, size_t cycles,
                       const BitVec& garbler_bits,
                       const BitVec& evaluator_bits) {
  const size_t g_per = step.garbler_inputs.size();
  const size_t e_per = step.evaluator_inputs.size();
  if (garbler_bits.size() != g_per * cycles)
    throw std::invalid_argument("sequential garbler input size mismatch");
  if (evaluator_bits.size() != e_per * cycles)
    throw std::invalid_argument("sequential evaluator input size mismatch");

  BitVec state(step.state_inputs.size(), 0);
  BitVec out;
  for (size_t t = 0; t < cycles; ++t) {
    const BitVec g_slice(garbler_bits.begin() + t * g_per,
                         garbler_bits.begin() + (t + 1) * g_per);
    const BitVec e_slice(evaluator_bits.begin() + t * e_per,
                         evaluator_bits.begin() + (t + 1) * e_per);
    out = step.eval(g_slice, e_slice, &state);
  }
  return out;
}

}  // namespace deepsecure
