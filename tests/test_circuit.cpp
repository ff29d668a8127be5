#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "circuit/builder.h"
#include "circuit/netlist_io.h"
#include "circuit/schedule.h"
#include "core/benchmark_zoo.h"
#include "gc/material.h"
#include "support/rng.h"
#include "synth/gate_count.h"
#include "synth/layer_circuits.h"

namespace deepsecure {
namespace {

TEST(Builder, BasicGates) {
  Builder b("basic");
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kEvaluator);
  b.output(b.xor_(x, y));
  b.output(b.and_(x, y));
  b.output(b.or_(x, y));
  b.output(b.not_(x));
  b.output(b.xnor_(x, y));
  b.output(b.nand_(x, y));
  b.output(b.nor_(x, y));
  const Circuit c = b.build();

  for (int xv = 0; xv < 2; ++xv) {
    for (int yv = 0; yv < 2; ++yv) {
      const BitVec out = c.eval({static_cast<uint8_t>(xv)},
                                {static_cast<uint8_t>(yv)});
      EXPECT_EQ(out[0], xv ^ yv);
      EXPECT_EQ(out[1], xv & yv);
      EXPECT_EQ(out[2], xv | yv);
      EXPECT_EQ(out[3], 1 - xv);
      EXPECT_EQ(out[4], 1 - (xv ^ yv));
      EXPECT_EQ(out[5], 1 - (xv & yv));
      EXPECT_EQ(out[6], 1 - (xv | yv));
    }
  }
}

TEST(Builder, MuxTruthTable) {
  Builder b;
  const Wire s = b.input(Party::kGarbler);
  const Wire t = b.input(Party::kGarbler);
  const Wire f = b.input(Party::kGarbler);
  b.output(b.mux(s, t, f));
  const Circuit c = b.build();
  for (int sv = 0; sv < 2; ++sv)
    for (int tv = 0; tv < 2; ++tv)
      for (int fv = 0; fv < 2; ++fv) {
        const BitVec out = c.eval({static_cast<uint8_t>(sv),
                                   static_cast<uint8_t>(tv),
                                   static_cast<uint8_t>(fv)},
                                  {});
        EXPECT_EQ(out[0], sv ? tv : fv);
      }
}

TEST(Builder, ConstantFolding) {
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  EXPECT_EQ(b.and_(x, b.const_bit(false)), kConst0);
  EXPECT_EQ(b.and_(x, b.const_bit(true)), x);
  EXPECT_EQ(b.xor_(x, b.const_bit(false)), x);
  EXPECT_EQ(b.xor_(x, x), kConst0);
  EXPECT_EQ(b.and_(x, x), x);
  EXPECT_EQ(b.and_count(), 0u);
  EXPECT_EQ(b.xor_count(), 0u);
}

TEST(Builder, StructuralHashingDedupes) {
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kGarbler);
  const Wire g1 = b.and_(x, y);
  const Wire g2 = b.and_(y, x);  // commuted
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(b.and_count(), 1u);
  const Wire x1 = b.xor_(x, y);
  const Wire x2 = b.xor_(x, y);
  EXPECT_EQ(x1, x2);
  EXPECT_EQ(b.xor_count(), 1u);
}

// Reference CSE builder: the structural-hashing rules of Builder, keyed
// through a node-based std::unordered_map. or_ and mux repeat Builder's
// lowering expressions verbatim, so both evaluate operands in the same
// order and must emit the same gate stream.
class ReferenceBuilder {
 public:
  Wire input() { return c_.num_wires++; }
  void set_lane(uint32_t lane) {
    if (!lanes_used_) {
      lanes_used_ = true;
      c_.gate_lanes.assign(c_.gates.size(), 0);
    }
    lane_ = lane;
  }
  Wire xor_(Wire a, Wire b) { return emit(GateOp::kXor, a, b); }
  Wire and_(Wire a, Wire b) { return emit(GateOp::kAnd, a, b); }
  Wire not_(Wire a) { return xor_(a, kConst1); }
  Wire or_(Wire a, Wire b) { return xor_(xor_(a, b), and_(a, b)); }
  Wire mux(Wire sel, Wire t, Wire f) {
    if (t == f) return t;
    return xor_(f, and_(sel, xor_(t, f)));
  }
  const Circuit& circuit() const { return c_; }
  uint64_t and_count = 0;
  uint64_t xor_count = 0;

 private:
  Wire emit(GateOp op, Wire a, Wire b) {
    if (a > b) std::swap(a, b);
    if (op == GateOp::kXor) {
      if (a == b) return kConst0;
      if (a == kConst0) return b;
    } else {
      if (a == b) return a;
      if (a == kConst0) return kConst0;
      if (a == kConst1) return b;
    }
    const uint64_t key = (static_cast<uint64_t>(a) << 33) |
                         (static_cast<uint64_t>(b) << 1) |
                         static_cast<uint64_t>(op);
    if (auto it = map_.find(key); it != map_.end()) return it->second;
    const Wire out = c_.num_wires++;
    c_.gates.push_back(Gate{a, b, out, op});
    if (lanes_used_) c_.gate_lanes.push_back(lane_);
    ++(op == GateOp::kAnd ? and_count : xor_count);
    map_.emplace(key, out);
    return out;
  }

  Circuit c_;
  uint32_t lane_ = 0;
  bool lanes_used_ = false;
  std::unordered_map<uint64_t, Wire> map_;
};

TEST(Builder, CseTableMatchesReferenceMapGateByGate) {
  // Randomized emit stream through Builder and ReferenceBuilder in
  // lockstep: constants, repeated and swapped operands, re-emitted
  // triples (CSE hits) and lane changes, long enough to cross many
  // CSE table growths.
  constexpr size_t kEmits = 320000;
  Rng rng(20260417);
  Builder b("diff");
  ReferenceBuilder ref;
  std::vector<Wire> pool{kConst0, kConst1};
  for (int i = 0; i < 24; ++i) {
    const Wire w = b.input(Party::kGarbler);
    ASSERT_EQ(w, ref.input());
    pool.push_back(w);
  }
  struct Emitted {
    int op;
    Wire x, y, z;
  };
  std::vector<Emitted> history;
  auto pick = [&]() -> Wire {
    // Mostly recent wires, so operand pairs repeat often.
    const uint64_t r = rng.next_below(8);
    if (r == 0) return pool[rng.next_below(2)];  // a constant
    if (r < 5 && pool.size() > 64)
      return pool[pool.size() - 1 - rng.next_below(64)];
    return pool[rng.next_below(pool.size())];
  };
  size_t hits_seen = 0;
  for (size_t i = 0; i < kEmits; ++i) {
    if (i == 1000 || rng.next_below(5000) == 0) {
      const uint32_t lane = static_cast<uint32_t>(rng.next_below(64));
      b.set_lane(lane);
      ref.set_lane(lane);
    }
    Emitted e{};
    const uint64_t mode = rng.next_below(10);
    if (mode < 3 && !history.empty()) {
      // Re-emit an earlier triple, operands swapped half the time.
      const size_t back = std::min<size_t>(history.size(), 4096);
      e = history[history.size() - 1 - rng.next_below(back)];
      if (rng.next_bool()) std::swap(e.x, e.y);
    } else {
      e = {static_cast<int>(rng.next_below(5)), pick(), pick(), pick()};
      if (mode == 3) e.y = e.x;  // repeated operand
    }
    const size_t before = ref.circuit().gates.size();
    Wire got = 0, want = 0;
    switch (e.op) {
      case 0: got = b.xor_(e.x, e.y); want = ref.xor_(e.x, e.y); break;
      case 1: got = b.and_(e.x, e.y); want = ref.and_(e.x, e.y); break;
      case 2: got = b.or_(e.x, e.y); want = ref.or_(e.x, e.y); break;
      case 3: got = b.mux(e.x, e.y, e.z); want = ref.mux(e.x, e.y, e.z); break;
      default: got = b.not_(e.x); want = ref.not_(e.x); break;
    }
    ASSERT_EQ(got, want) << "emit " << i;
    if (ref.circuit().gates.size() == before) ++hits_seen;
    history.push_back(e);
    pool.push_back(got);
  }
  EXPECT_EQ(b.and_count(), ref.and_count);
  EXPECT_EQ(b.xor_count(), ref.xor_count);
  for (size_t o = 0; o < 16; ++o) b.output(pool[pool.size() - 1 - o]);
  const Circuit c = b.build();
  const Circuit& r = ref.circuit();
  ASSERT_GT(hits_seen, kEmits / 10);
  ASSERT_GT(c.gates.size(), 100000u);
  EXPECT_EQ(c.num_wires, r.num_wires);
  ASSERT_EQ(c.gates.size(), r.gates.size());
  for (size_t g = 0; g < c.gates.size(); ++g) {
    const Gate& x = c.gates[g];
    const Gate& y = r.gates[g];
    ASSERT_TRUE(x.a == y.a && x.b == y.b && x.out == y.out && x.op == y.op)
        << "gate " << g;
  }
  EXPECT_EQ(c.gate_lanes, r.gate_lanes);
}

// Pinned handshake fingerprints of two compiled chains, in both gate
// orders. Any change to the builder, the block generators, the
// scheduling pass or its slot numbering that alters a single gate
// moves them, and with them every table stream and wire byte. The
// walked chain a runtime party keeps (walk_chain) hashes to the
// scheduled pin, in either mode.
synth::ModelSpec mlp_8_6_3() {
  synth::ModelSpec spec;
  spec.name = "mlp";
  spec.input = synth::Shape3{1, 1, 8};
  spec.layers.push_back(synth::FcLayer{6, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  return spec;
}

// The paper's pre-processed Benchmark 3, compiled once for the tests
// below (a few seconds).
const std::vector<Circuit>& b3pp_chain() {
  static const std::vector<Circuit> chain =
      synth::compile_model_layers(core::paper_zoo()[2].compact);
  return chain;
}

TEST(Builder, PinnedChainFingerprintMlp) {
  const auto chain = synth::compile_model_layers(mlp_8_6_3());
  EXPECT_EQ(chain_fingerprint(chain, /*scheduled=*/true),
            0x02b4e7b18168e64bull);
  EXPECT_EQ(chain_fingerprint(chain, /*scheduled=*/false),
            0xf3821f9db2890075ull);
  const auto walked = walk_chain(chain);
  EXPECT_EQ(chain_fingerprint(walked, /*scheduled=*/true),
            0x02b4e7b18168e64bull);
  EXPECT_EQ(chain_fingerprint(walked, /*scheduled=*/false),
            0x02b4e7b18168e64bull);
}

TEST(Builder, PinnedChainFingerprintB3pp) {
  EXPECT_EQ(chain_fingerprint(b3pp_chain(), /*scheduled=*/true),
            0x72e093253ba35c39ull);
  EXPECT_EQ(chain_fingerprint(b3pp_chain(), /*scheduled=*/false),
            0x430ca728988cfa60ull);
  EXPECT_EQ(chain_fingerprint(walk_chain(b3pp_chain())),
            0x72e093253ba35c39ull);
}

// Label slots: the walked view of b3_pp's first FC layer (7.39 M
// wires) needs at most 1.5 M label slots.
TEST(Circuit, WalkedViewOfB3ppLayer0UsesFewSlots) {
  const Circuit& l0 = b3pp_chain().front();
  const auto walked = l0.gc_scheduled();
  EXPECT_GT(l0.num_wires, 7000000u);
  EXPECT_LE(walked->num_wires, 1500000u);
  EXPECT_EQ(walked->gates.size(), l0.gates.size());
}

// The Table 2 roll-up charges each MULT's x-only prologue once per
// input feature, as CSE emits it, so it tracks the compiled chain.
TEST(GateCount, RollUpMatchesCompiledB3pp) {
  synth::GateCount compiled;
  for (const Circuit& c : b3pp_chain()) compiled += synth::count_circuit(c);
  const synth::GateCount rolled =
      synth::count_model(core::paper_zoo()[2].compact);
  const auto near = [](uint64_t got, uint64_t want) {
    return std::abs(static_cast<double>(got) - static_cast<double>(want)) <=
           0.005 * static_cast<double>(want);
  };
  EXPECT_TRUE(near(rolled.num_non_xor, compiled.num_non_xor))
      << rolled.num_non_xor << " vs " << compiled.num_non_xor;
  EXPECT_TRUE(near(rolled.num_one_row, compiled.num_one_row))
      << rolled.num_one_row << " vs " << compiled.num_one_row;
}

TEST(Circuit, StatsCountGateClasses) {
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kEvaluator);
  const Wire z = b.input(Party::kGarbler);
  b.output(b.or_(x, y));  // 1 one-row AND (y is evaluator-known) + 2 XOR
  b.output(b.and_(x, z));  // 1 two-row AND
  const Circuit c = b.build();
  const auto s = c.stats();
  EXPECT_EQ(s.num_and, 2u);
  EXPECT_EQ(s.num_and_known, 1u);
  EXPECT_EQ(s.num_xor, 2u);
  EXPECT_EQ(s.table_bytes(), 32u + 16u);
}

TEST(Circuit, ValidateRejectsUnordered) {
  Circuit c;
  c.num_wires = 4;
  c.garbler_inputs = {2};
  // Gate uses wire 3 before it is defined.
  c.gates.push_back(Gate{3, 2, 3, GateOp::kXor});
  EXPECT_THROW(c.validate(), std::logic_error);
}

TEST(Sequential, AccumulatorCountsOnes) {
  // 4-bit counter: state += garbler bit each cycle.
  Builder b("counter");
  const Wire in = b.input(Party::kGarbler);
  std::vector<Wire> acc = b.state_inputs(4);
  // Increment by `in`: ripple add of a 1-bit value.
  Wire carry = in;
  std::vector<Wire> next(4);
  for (int i = 0; i < 4; ++i) {
    next[i] = b.xor_(acc[i], carry);
    carry = b.and_(acc[i], carry);
  }
  b.set_state_next(next);
  b.outputs(next);
  const Circuit step = b.build();

  const BitVec bits = {1, 1, 0, 1, 1, 1};  // six cycles, sum = 5
  const BitVec out = eval_sequential(step, bits.size(), bits, {});
  EXPECT_EQ(from_bits(out), 5u);
}

TEST(NetlistIo, RoundTrip) {
  Builder b("roundtrip");
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kEvaluator);
  const Wire s = b.state_input();
  const Wire z = b.and_(b.xor_(x, y), s);
  b.set_state_next({z});
  b.output(z);
  const Circuit c = b.build();

  const std::string text = netlist_to_string(c);
  const Circuit c2 = netlist_from_string(text);
  EXPECT_EQ(c2.name, "roundtrip");
  EXPECT_EQ(c2.gates.size(), c.gates.size());
  EXPECT_EQ(c2.num_wires, c.num_wires);

  BitVec st1{1}, st2{1};
  EXPECT_EQ(c.eval({1}, {0}, &st1), c2.eval({1}, {0}, &st2));
  EXPECT_EQ(st1, st2);
}

// One-row ANDs serialize as ANDK and re-validate on load: the reader
// refuses an ANDK whose b operand is not evaluator-known.
TEST(NetlistIo, OneRowAndRoundTripsAndIsValidated) {
  Builder b("known");
  const Wire x = b.input(Party::kGarbler);
  const Wire y0 = b.input(Party::kEvaluator);
  const Wire y1 = b.input(Party::kEvaluator);
  const Wire z = b.and_(b.xor_(y0, y1), x);  // known XOR as operand
  const Wire v = b.and_(y0, x);
  b.output(z);
  b.output(v);
  b.output(b.and_(z, v));  // two-row
  const Circuit c = b.build();
  ASSERT_EQ(c.stats().num_and_known, 2u);
  ASSERT_EQ(c.stats().num_and, 3u);

  const std::string text = netlist_to_string(c);
  EXPECT_NE(text.find("gate ANDK "), std::string::npos);
  const Circuit c2 = netlist_from_string(text);
  ASSERT_EQ(c2.gates.size(), c.gates.size());
  for (size_t i = 0; i < c.gates.size(); ++i) {
    EXPECT_EQ(c2.gates[i].op, c.gates[i].op) << i;
    EXPECT_EQ(c2.gates[i].b, c.gates[i].b) << i;
  }
  for (uint8_t bits = 0; bits < 8; ++bits) {
    const BitVec g{uint8_t(bits & 1)};
    const BitVec e{uint8_t(bits >> 1 & 1), uint8_t(bits >> 2 & 1)};
    EXPECT_EQ(c.eval(g, e), c2.eval(g, e));
  }

  // Hand edit: y1 becomes a garbler input, so the XOR feeding the first
  // ANDK is no longer evaluator-known.
  const std::string in_g = "in G " + std::to_string(x) + "\n";
  const std::string in_e =
      "in E " + std::to_string(y0) + ' ' + std::to_string(y1) + "\n";
  std::string edited = text;
  ASSERT_NE(edited.find(in_g), std::string::npos);
  ASSERT_NE(edited.find(in_e), std::string::npos);
  edited.replace(edited.find(in_e), in_e.size(),
                 "in E " + std::to_string(y0) + "\n");
  edited.replace(edited.find(in_g), in_g.size(),
                 "in G " + std::to_string(x) + ' ' + std::to_string(y1) +
                     "\n");
  EXPECT_THROW(netlist_from_string(edited), std::logic_error);
}

TEST(NetlistIo, RejectsMalformed) {
  EXPECT_THROW(netlist_from_string("gate AND 1 2 3\n"), std::runtime_error);
  EXPECT_THROW(netlist_from_string("netlist x\nwires 4\ngate FOO 0 1 2\n"),
               std::runtime_error);
  EXPECT_THROW(netlist_from_string("netlist x\nwires 4\ngate ANDX 0 1 2\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace deepsecure
