// Width-aware netlist scheduling pass (circuit/schedule.h): the
// scheduled order must stay a valid topological order with unchanged
// plaintext semantics on randomized DAGs, must widen AND-batch windows
// on the arithmetic netlists it was built for (>= 2x mean width on
// matvec/layer circuits — the PR's acceptance bar), and the GC protocol
// over scheduled circuits must agree with plaintext and with the
// unscheduled oracle path, with both parties fingerprinting the same
// scheduled netlist. The walked view's label slots (walk_view) must
// leave every stream byte, flush point and decoded output as walking
// the SSA order would, and never overwrite a value a reader still needs.
// A walked chain (walk_chain) is its own schedule and garbles to the
// bytes of the construction-order chain it was walked from.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "circuit/bench_circuits.h"
#include "circuit/builder.h"
#include "circuit/schedule.h"
#include "gc/batch_walk.h"
#include "gc/garble.h"
#include "gc/material.h"
#include "gc/protocol.h"
#include "net/party.h"
#include "support/rng.h"
#include "synth/layer_circuits.h"
#include "synth/matvec.h"

namespace deepsecure {
namespace {

// Random DAG over the full gate basis, optionally lane-tagged, with
// deliberately hazard-heavy structure (fresh gates feed later gates).
Circuit random_dag(Rng& rng, int n_gates, bool with_lanes) {
  Builder b;
  std::vector<Wire> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kGarbler));
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kEvaluator));
  for (int g = 0; g < n_gates; ++g) {
    if (with_lanes && g % 7 == 0)
      b.set_lane(static_cast<uint32_t>(rng.next_below(5)));
    const Wire a = pool[rng.next_below(pool.size())];
    const Wire y = pool[rng.next_below(pool.size())];
    switch (rng.next_below(5)) {
      case 0: pool.push_back(b.xor_(a, y)); break;
      case 1: pool.push_back(b.and_(a, y)); break;
      case 2: pool.push_back(b.or_(a, y)); break;
      case 3: pool.push_back(b.mux(a, y, pool[rng.next_below(pool.size())]));
        break;
      default: pool.push_back(b.not_(a)); break;
    }
  }
  for (int o = 0; o < 12; ++o)
    b.output(pool[pool.size() - 1 - static_cast<size_t>(o)]);
  return b.build();
}

TEST(Schedule, FuzzPreservesTopologyAndSemantics) {
  Rng rng(20260727);
  for (int trial = 0; trial < 25; ++trial) {
    const Circuit c = random_dag(rng, 300 + int(rng.next_below(300)),
                                 /*with_lanes=*/trial % 2 == 0);
    const ScheduleResult r = schedule_circuit(c);

    // Still a valid netlist: topological, no redefinitions, in-range.
    ASSERT_NO_THROW(r.circuit.validate());

    // gate_map is a permutation of [0, gates).
    ASSERT_EQ(r.gate_map.size(), c.gates.size());
    std::vector<uint32_t> sorted = r.gate_map;
    std::sort(sorted.begin(), sorted.end());
    for (uint32_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);

    // Same gates, same interface, same tallies.
    EXPECT_EQ(r.circuit.stats().num_and, c.stats().num_and);
    EXPECT_EQ(r.circuit.stats().num_xor, c.stats().num_xor);
    EXPECT_EQ(r.circuit.outputs, c.outputs);
    EXPECT_EQ(r.circuit.garbler_inputs, c.garbler_inputs);

    // Plaintext oracle unchanged on random inputs.
    for (int round = 0; round < 4; ++round) {
      BitVec g_bits(8), e_bits(8);
      for (auto& v : g_bits) v = rng.next_bool();
      for (auto& v : e_bits) v = rng.next_bool();
      ASSERT_EQ(r.circuit.eval(g_bits, e_bits), c.eval(g_bits, e_bits));
    }
  }
}

TEST(Schedule, NeverNarrowsWindowsOnRandomDags) {
  Rng rng(515);
  for (int trial = 0; trial < 10; ++trial) {
    const Circuit c = random_dag(rng, 500, /*with_lanes=*/false);
    const WindowStats before = window_stats(c, kGcMaxBatchWindow);
    const WindowStats after =
        window_stats(*c.gc_scheduled(), kGcMaxBatchWindow);
    EXPECT_EQ(after.and_gates, before.and_gates);
    // Levelization bounds dependency flushes by the AND depth, which
    // construction order can only match or exceed.
    EXPECT_LE(after.flush_points, before.flush_points);
    EXPECT_GE(after.mean, before.mean);
  }
}

// The acceptance bar: >= 2x mean AND-window width on matvec and on the
// compiled per-layer model netlists (the carry-chain-heavy regime the
// pass exists for).
TEST(Schedule, DoublesMeanWindowWidthOnMatvec) {
  const Circuit c = synth::make_matvec_circuit(16, 8, kDefaultFormat);
  const WindowStats before = window_stats(c, kGcMaxBatchWindow);
  const WindowStats after = window_stats(*c.gc_scheduled(), kGcMaxBatchWindow);
  EXPECT_EQ(after.and_gates, before.and_gates);
  EXPECT_GE(after.mean, 2.0 * before.mean)
      << "unscheduled mean " << before.mean << ", scheduled " << after.mean;
}

TEST(Schedule, DoublesMeanWindowWidthOnModelLayers) {
  synth::ModelSpec spec;
  spec.name = "sched_cnn";
  spec.input = synth::Shape3{6, 6, 1};
  spec.layers.push_back(synth::ConvLayer{3, 1, 2, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{4, {}, true});
  const auto chain = synth::compile_model_layers(spec);
  ASSERT_FALSE(chain.empty());
  for (const Circuit& c : chain) {
    const WindowStats before = window_stats(c, kGcMaxBatchWindow);
    const WindowStats after =
        window_stats(*c.gc_scheduled(), kGcMaxBatchWindow);
    if (before.and_gates == 0) continue;  // nothing to widen
    if (before.flush_points == 0) {
      // Already a single full-width window (e.g. the elementwise ReLU
      // layer): scheduling must not regress it.
      EXPECT_GE(after.mean, before.mean) << c.name;
      continue;
    }
    EXPECT_GE(after.mean, 2.0 * before.mean)
        << c.name << ": unscheduled mean " << before.mean << ", scheduled "
        << after.mean;
  }
}

// Deferred free-XOR falls out of the reorder: on a netlist whose XOR
// consumers force a flush per AND under construction order, the
// scheduled order needs exactly one dependency flush per AND level.
TEST(Schedule, XorConsumersNoLongerForceFlushes) {
  const Circuit c = synth::make_matvec_circuit(8, 4, kDefaultFormat);
  const auto sched = c.gc_scheduled();
  // One flush point per AND level (minus the implicit first window).
  std::vector<uint32_t> wire_level(c.num_wires, 0);
  uint32_t depth = 0;
  for (const Gate& g : c.gates) {
    const uint32_t lvl = std::max(wire_level[g.a], wire_level[g.b]);
    wire_level[g.out] = lvl + (g.op != GateOp::kXor ? 1 : 0);
    depth = std::max(depth, wire_level[g.out]);
  }
  EXPECT_LE(sched->gc_flush_points()->size(), depth);
}

// Record the constant-labels + table stream of one garbling.
class RecordChannel : public Channel {
 public:
  void send_bytes(const void* data, size_t n) override {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + n);
  }
  void recv_bytes(void*, size_t) override {
    throw std::logic_error("RecordChannel: recv not supported");
  }
  uint64_t bytes_sent() const override { return bytes.size(); }
  uint64_t bytes_received() const override { return 0; }
  void reset_counters() override { bytes.clear(); }

  std::vector<uint8_t> bytes;
};

std::vector<uint8_t> garble_stream(const Circuit& c, Block seed,
                                   const GcOptions& opt) {
  RecordChannel ch;
  Garbler g(ch, seed, opt);
  const Labels gz = g.fresh_zeros(c.garbler_inputs.size());
  const Labels ez = g.fresh_known_zeros(c.evaluator_inputs.size());
  g.garble(c, gz, ez, {});
  return ch.bytes;
}

// Scalar and batched pipelines must stay byte-identical under the
// scheduled order too (tweaks and tables both follow the walked order).
TEST(Schedule, ScalarAndBatchedByteIdenticalOnScheduledOrder) {
  Rng rng(99);
  const Circuit c = random_dag(rng, 400, /*with_lanes=*/true);
  for (const bool sched : {false, true}) {
    GcOptions scalar, batched;
    scalar.pipeline = GcPipeline::kScalar;
    scalar.schedule = sched;
    batched.pipeline = GcPipeline::kBatched;
    batched.schedule = sched;
    EXPECT_EQ(garble_stream(c, Block{5, 7}, scalar),
              garble_stream(c, Block{5, 7}, batched))
        << "schedule=" << sched;
  }
  // Scheduling changes the stream order on this netlist (it is not the
  // identity permutation here) — the two modes are distinct wire formats.
  GcOptions on, off;
  on.schedule = true;
  off.schedule = false;
  EXPECT_NE(garble_stream(c, Block{5, 7}, on),
            garble_stream(c, Block{5, 7}, off));
}

// Full GC protocol equality over MemChannel: scheduled and unscheduled
// executions decode to the same plaintext result on random DAGs and on
// two real matvec netlists.
TEST(Schedule, TwoPartyScheduledMatchesPlaintextAndOracle) {
  Rng rng(777);
  std::vector<Circuit> circuits;
  for (int t = 0; t < 3; ++t)
    circuits.push_back(random_dag(rng, 350, /*with_lanes=*/t == 0));
  circuits.push_back(synth::make_matvec_circuit(4, 3, kDefaultFormat));
  circuits.push_back(synth::make_matvec_circuit(12, 6, kDefaultFormat));

  for (const Circuit& c : circuits) {
    BitVec g_bits(c.garbler_inputs.size()), e_bits(c.evaluator_inputs.size());
    for (auto& v : g_bits) v = rng.next_bool();
    for (auto& v : e_bits) v = rng.next_bool();
    const BitVec expect = c.eval(g_bits, e_bits);

    for (const bool sched : {true, false}) {
      GcOptions opt;
      opt.schedule = sched;
      BitVec decoded;
      run_two_party(
          [&](Channel& ch) {
            Garbler g(ch, Block{42, 42}, opt);
            const Labels gz = g.fresh_zeros(g_bits.size());
            const Labels ez = g.fresh_known_zeros(e_bits.size());
            g.send_active(g_bits, gz);
            std::vector<Block> active(e_bits.size());
            for (size_t i = 0; i < e_bits.size(); ++i)
              active[i] = e_bits[i] ? (ez[i] ^ g.delta()) : ez[i];
            if (!active.empty())
              ch.send_bytes(active.data(), active.size() * sizeof(Block));
            decoded = g.decode_outputs(g.garble(c, gz, ez, {}));
          },
          [&](Channel& ch) {
            Evaluator e(ch, opt);
            const Labels gl = e.recv_active(g_bits.size());
            const Labels el = e.recv_active(e_bits.size());
            e.send_outputs(e.evaluate(c, gl, el, {}));
          });
      EXPECT_EQ(decoded, expect) << c.name << " schedule=" << sched;
    }
  }
}

// Fingerprint regression: two independently compiled copies of the same
// model agree on the scheduled fingerprint (what the runtime handshake
// compares), and the offline artifact stamps that same value.
TEST(Schedule, FingerprintAgreesAcrossCompilesAndMaterial) {
  synth::ModelSpec spec;
  spec.name = "fp_model";
  spec.input = synth::Shape3{4, 4, 1};
  spec.layers.push_back(synth::ConvLayer{3, 1, 2, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});

  const auto garbler_side = synth::compile_model_layers(spec);
  const auto evaluator_side = synth::compile_model_layers(spec);
  EXPECT_EQ(chain_fingerprint(garbler_side, true),
            chain_fingerprint(evaluator_side, true));
  EXPECT_EQ(chain_fingerprint(garbler_side, false),
            chain_fingerprint(evaluator_side, false));
  // Scheduling actually reorders these netlists, so the two fingerprint
  // spaces differ — a scheduled endpoint cannot shake hands with an
  // unscheduled one.
  EXPECT_NE(chain_fingerprint(garbler_side, true),
            chain_fingerprint(garbler_side, false));

  GcOptions opt;
  opt.schedule = true;
  const GarbledMaterial mat = garble_offline(garbler_side, Block{1, 2}, opt);
  EXPECT_EQ(mat.fingerprint, chain_fingerprint(evaluator_side, true));
}

// window_stats (circuit/, can't see gc/) mirrors gc_batched_walk's
// drain policy rather than calling it. This guard keeps the two in
// lock-step: the widths window_stats reports must be exactly the
// window sizes an instrumented real walk drains.
TEST(Schedule, WindowStatsMatchesRealBatchedWalk) {
  Rng rng(606);
  std::vector<Circuit> circuits;
  circuits.push_back(synth::make_matvec_circuit(8, 4, kDefaultFormat));
  circuits.push_back(bench_circuits::and_chain(64));
  circuits.push_back(bench_circuits::wide_and(3 * kGcMaxBatchWindow + 17));
  circuits.push_back(random_dag(rng, 600, /*with_lanes=*/true));

  for (const Circuit& base : circuits) {
    for (const bool sched : {false, true}) {
      std::shared_ptr<const Circuit> keep;
      const Circuit& c = sched ? *(keep = base.gc_scheduled()) : base;

      std::vector<size_t> walked_widths;
      size_t pending = 0;
      gc_batched_walk(
          c, [](const Gate&) {},
          [&](const Gate&) { ++pending; },
          [&](bool /*level_boundary*/) {
            if (pending > 0) walked_widths.push_back(pending);
            pending = 0;
          });

      const WindowStats ws = window_stats(c, kGcMaxBatchWindow);
      ASSERT_EQ(ws.windows, walked_widths.size())
          << base.name << " sched=" << sched;
      size_t ands = 0, widest = 0;
      for (size_t w : walked_widths) {
        ands += w;
        widest = std::max(widest, w);
      }
      EXPECT_EQ(ws.and_gates, ands);
      EXPECT_EQ(ws.max, widest);
    }
  }
}

TEST(Schedule, ScheduledViewIsCachedAndInvalidated) {
  Circuit c = synth::make_matvec_circuit(4, 2, kDefaultFormat);
  const auto first = c.gc_scheduled();
  const auto second = c.gc_scheduled();
  EXPECT_EQ(first.get(), second.get());  // shared cached instance

  // Copies recompute (cache not inherited), same result.
  const Circuit copy = c;
  const auto copied = copy.gc_scheduled();
  EXPECT_NE(copied.get(), first.get());
  EXPECT_EQ(copied->gates.size(), first->gates.size());
  for (size_t i = 0; i < first->gates.size(); ++i) {
    EXPECT_EQ(copied->gates[i].out, first->gates[i].out);
  }
}

// ---------------------------------------------------------------------
// Label slots (walk_view): the slotted walk against the SSA order.

// Raw netlist built gate by gate, without the Builder's folding and
// CSE, so it holds what the slot rule must handle: operands that
// coincide (a == b), gate outputs nobody reads (dead ANDs and XORs),
// outputs that are inputs or constants, lane tags, a state register
// fed back through state_next, and one-row ANDs over evaluator-known
// wires mixed with two-row ones.
Circuit raw_dag(Rng& rng, int n_gates) {
  Circuit c;
  c.name = "raw_dag";
  std::vector<Wire> pool = {kConst0, kConst1};
  auto inputs = [&](std::vector<Wire>& v, int n) {
    for (int i = 0; i < n; ++i) {
      v.push_back(c.num_wires++);
      pool.push_back(v.back());
    }
  };
  inputs(c.garbler_inputs, 6);
  inputs(c.evaluator_inputs, 6);
  inputs(c.state_inputs, 4);
  std::vector<uint8_t> known(c.num_wires, 0);  // evaluator-known wires
  for (Wire w : c.evaluator_inputs) known[w] = 1;
  // Mostly recent wires (deep, hazard-heavy chains), sometimes any.
  auto pick = [&]() {
    const size_t back = std::min<size_t>(pool.size(), 12);
    return rng.next_below(4) == 0
               ? pool[rng.next_below(pool.size())]
               : pool[pool.size() - 1 - rng.next_below(back)];
  };
  std::vector<Wire> outs;
  for (int g = 0; g < n_gates; ++g) {
    Gate gate;
    gate.a = pick();
    gate.b = rng.next_below(8) == 0 ? gate.a : pick();
    gate.op = rng.next_bool() ? GateOp::kAnd : GateOp::kXor;
    // An AND over an evaluator-known wire is the one-row op, known
    // operand in b, as the Builder emits it.
    if (gate.op == GateOp::kAnd && (known[gate.a] || known[gate.b])) {
      if (!known[gate.b]) std::swap(gate.a, gate.b);
      gate.op = GateOp::kAndKnown;
    }
    gate.out = c.num_wires++;
    known.push_back(gate.op == GateOp::kXor && known[gate.a] &&
                    known[gate.b]);
    c.gates.push_back(gate);
    c.gate_lanes.push_back(static_cast<uint32_t>(rng.next_below(4)));
    outs.push_back(gate.out);
    // One gate in five is never read by a later gate.
    if (rng.next_below(5) != 0) pool.push_back(gate.out);
  }
  c.outputs = {outs.back(), outs[outs.size() / 2], c.garbler_inputs[2],
               kConst1, kConst0, outs.back()};
  c.state_next = {outs[outs.size() - 2], c.state_inputs[1],
                  outs[outs.size() / 3], c.evaluator_inputs[0]};
  c.validate();
  return c;
}

BitVec random_bits(Rng& rng, size_t n) {
  BitVec v(n);
  for (auto& b : v) b = rng.next_bool();
  return v;
}

struct GarbleRecord {
  std::vector<uint8_t> stream;
  Labels outputs;
  Labels state_next;
};

GarbleRecord garble_with_state(const Circuit& c, const GcOptions& opt) {
  RecordChannel ch;
  Garbler g(ch, Block{11, 13}, opt);
  const Labels gz = g.fresh_zeros(c.garbler_inputs.size());
  const Labels ez = g.fresh_known_zeros(c.evaluator_inputs.size());
  const Labels sz = g.fresh_zeros(c.state_inputs.size());
  GarbleRecord r;
  r.outputs = g.garble(c, gz, ez, sz, &r.state_next);
  r.stream = std::move(ch.bytes);
  return r;
}

std::vector<Circuit> slot_circuits() {
  Rng rng(1414);
  std::vector<Circuit> cs;
  for (int t = 0; t < 12; ++t)
    cs.push_back(raw_dag(rng, 200 + static_cast<int>(rng.next_below(400))));
  cs.push_back(random_dag(rng, 500, /*with_lanes=*/true));
  cs.push_back(synth::make_matvec_circuit(6, 4, kDefaultFormat));
  return cs;
}

// The raw DAGs really exercise the rule's special cases.
TEST(WalkView, RawDagsCoverDeadOutputsAndAliasedOperands) {
  size_t dead_and = 0, dead_xor = 0, same_operands = 0;
  for (const Circuit& c : slot_circuits()) {
    std::vector<uint8_t> read(c.num_wires, 0);
    for (const Gate& g : c.gates) read[g.a] = read[g.b] = 1;
    for (Wire w : c.outputs) read[w] = 1;
    for (Wire w : c.state_next) read[w] = 1;
    for (const Gate& g : c.gates) {
      if (!read[g.out]) ++(g.op != GateOp::kXor ? dead_and : dead_xor);
      if (g.a == g.b) ++same_operands;
    }
  }
  EXPECT_GT(dead_and, 50u);
  EXPECT_GT(dead_xor, 50u);
  EXPECT_GT(same_operands, 50u);
}

// Garbling the slotted view gives the stream bytes, output labels and
// state labels of garbling the SSA order, scalar and batched.
TEST(WalkView, GarbleByteIdenticalToSsaOrder) {
  for (const Circuit& c : slot_circuits()) {
    const Circuit ssa = schedule_circuit(c).circuit;
    for (const GcPipeline pipeline :
         {GcPipeline::kScalar, GcPipeline::kBatched}) {
      GcOptions walked, oracle;
      walked.pipeline = oracle.pipeline = pipeline;
      walked.schedule = true;
      oracle.schedule = false;
      const GarbleRecord a = garble_with_state(c, walked);
      const GarbleRecord b = garble_with_state(ssa, oracle);
      const bool scalar = pipeline == GcPipeline::kScalar;
      EXPECT_EQ(a.stream, b.stream) << c.name << " scalar=" << scalar;
      EXPECT_EQ(a.outputs, b.outputs) << c.name << " scalar=" << scalar;
      EXPECT_EQ(a.state_next, b.state_next) << c.name << " scalar=" << scalar;
    }
  }
}

// Two-party evaluation over the slotted view decodes outputs and the
// next state to Circuit::eval.
TEST(WalkView, TwoPartyDecodesToPlaintext) {
  Rng rng(2718);
  for (const Circuit& c : slot_circuits()) {
    const BitVec g_bits = random_bits(rng, c.garbler_inputs.size());
    const BitVec e_bits = random_bits(rng, c.evaluator_inputs.size());
    BitVec state = random_bits(rng, c.state_inputs.size());
    const BitVec s_bits = state;
    const BitVec expect = c.eval(g_bits, e_bits, &state);

    BitVec decoded, decoded_state;
    run_two_party(
        [&](Channel& ch) {
          Garbler g(ch, Block{8, 9});
          const Labels gz = g.fresh_zeros(g_bits.size());
          const Labels ez = g.fresh_known_zeros(e_bits.size());
          const Labels sz = g.fresh_zeros(s_bits.size());
          g.send_active(g_bits, gz);
          g.send_active(e_bits, ez);  // stands in for OT here
          g.send_active(s_bits, sz);
          Labels next_zeros;
          const Labels out = g.garble(c, gz, ez, sz, &next_zeros);
          decoded = g.decode_outputs(out);
          decoded_state = g.decode_outputs(next_zeros);
        },
        [&](Channel& ch) {
          Evaluator e(ch, GcOptions{});
          const Labels gl = e.recv_active(g_bits.size());
          const Labels el = e.recv_active(e_bits.size());
          const Labels sl = e.recv_active(s_bits.size());
          Labels next;
          e.send_outputs(e.evaluate(c, gl, el, sl, &next));
          e.send_outputs(next);
        });
    EXPECT_EQ(decoded, expect) << c.name;
    EXPECT_EQ(decoded_state, state) << c.name;
  }
}

// The view's flush points equal the SSA order's, its plaintext eval
// matches, and it never needs more slots than wires.
TEST(WalkView, FlushPointsAndPlaintextMatchSsaOrder) {
  Rng rng(31337);
  for (const Circuit& c : slot_circuits()) {
    const auto walked = c.gc_scheduled();
    const Circuit ssa = schedule_circuit(c).circuit;
    EXPECT_EQ(*walked->gc_flush_points(), *ssa.gc_flush_points()) << c.name;
    EXPECT_TRUE(walked->gate_lanes.empty());
    EXPECT_LE(walked->num_wires, c.num_wires);
    for (int round = 0; round < 4; ++round) {
      const BitVec g_bits = random_bits(rng, c.garbler_inputs.size());
      const BitVec e_bits = random_bits(rng, c.evaluator_inputs.size());
      BitVec s1 = random_bits(rng, c.state_inputs.size());
      BitVec s2 = s1;
      ASSERT_EQ(walked->eval(g_bits, e_bits, &s1), c.eval(g_bits, e_bits, &s2))
          << c.name;
      EXPECT_EQ(s1, s2) << c.name;
    }
  }
}

// Liveness simulator over the batched walk of the view. Each slot
// tracks which SSA wire it holds; a read must find the wire it expects,
// a write (an XOR at its position, an AND at its window's flush) must
// not displace a wire that still has a reader to come, and no window
// holds two ANDs with the same output slot.
TEST(WalkView, SlotsNeverClobberLiveWires) {
  constexpr Wire kNone = ~Wire{0};
  for (const Circuit& c : slot_circuits()) {
    const Circuit ssa = schedule_circuit(c).circuit;
    const auto view = c.gc_scheduled();
    ASSERT_EQ(view->gates.size(), ssa.gates.size());

    // Reads to come per SSA wire; pinned wires are never done.
    std::vector<uint64_t> remaining(ssa.num_wires, 0);
    for (const Gate& g : ssa.gates) {
      ++remaining[g.a];
      ++remaining[g.b];
    }
    for (const auto* v : {&ssa.outputs, &ssa.state_next})
      for (Wire w : *v) remaining[w] += 1u << 30;

    std::vector<Wire> holds(view->num_wires, kNone);
    holds[kConst0] = kConst0;
    holds[kConst1] = kConst1;
    auto bind = [&](const std::vector<Wire>& slots,
                    const std::vector<Wire>& wires) {
      ASSERT_EQ(slots.size(), wires.size());
      for (size_t i = 0; i < slots.size(); ++i) holds[slots[i]] = wires[i];
    };
    bind(view->garbler_inputs, ssa.garbler_inputs);
    bind(view->evaluator_inputs, ssa.evaluator_inputs);
    bind(view->state_inputs, ssa.state_inputs);

    size_t clobbers = 0, bad_reads = 0, shared_outs = 0;
    auto read = [&](size_t i) {
      const Gate& v = view->gates[i];
      const Gate& g = ssa.gates[i];
      if (holds[v.a] != g.a || holds[v.b] != g.b) ++bad_reads;
      --remaining[g.a];
      --remaining[g.b];
    };
    auto write = [&](Wire slot, Wire wire) {
      if (holds[slot] != kNone && remaining[holds[slot]] > 0) ++clobbers;
      holds[slot] = wire;
    };
    std::vector<size_t> pending;
    gc_batched_walk(
        *view,
        [&](const Gate& v) {
          const size_t i = static_cast<size_t>(&v - view->gates.data());
          read(i);
          write(v.out, ssa.gates[i].out);
        },
        [&](const Gate& v) {
          const size_t i = static_cast<size_t>(&v - view->gates.data());
          read(i);
          for (size_t j : pending)
            if (view->gates[j].out == v.out) ++shared_outs;
          pending.push_back(i);
        },
        [&](bool) {
          for (size_t j : pending) write(view->gates[j].out, ssa.gates[j].out);
          pending.clear();
        });
    EXPECT_EQ(bad_reads, 0u) << c.name;
    EXPECT_EQ(clobbers, 0u) << c.name;
    EXPECT_EQ(shared_outs, 0u) << c.name;
    for (size_t i = 0; i < ssa.outputs.size(); ++i)
      EXPECT_EQ(holds[view->outputs[i]], ssa.outputs[i]) << c.name;
    for (size_t i = 0; i < ssa.state_next.size(); ++i)
      EXPECT_EQ(holds[view->state_next[i]], ssa.state_next[i]) << c.name;
  }
}

// ---------------------------------------------------------------------
// The walked chain (walk_chain): the one netlist a runtime party keeps.

// Same gates, slot count and interface.
::testing::AssertionResult same_netlist(const Circuit& x, const Circuit& y) {
  if (x.num_wires != y.num_wires)
    return ::testing::AssertionFailure()
           << "num_wires " << x.num_wires << " vs " << y.num_wires;
  if (x.gates.size() != y.gates.size())
    return ::testing::AssertionFailure()
           << "gates " << x.gates.size() << " vs " << y.gates.size();
  for (size_t i = 0; i < x.gates.size(); ++i) {
    const Gate& a = x.gates[i];
    const Gate& b = y.gates[i];
    if (a.a != b.a || a.b != b.b || a.out != b.out || a.op != b.op)
      return ::testing::AssertionFailure() << "gate " << i;
  }
  if (x.garbler_inputs != y.garbler_inputs ||
      x.evaluator_inputs != y.evaluator_inputs ||
      x.state_inputs != y.state_inputs || x.state_next != y.state_next ||
      x.outputs != y.outputs)
    return ::testing::AssertionFailure() << "interface differs";
  return ::testing::AssertionSuccess();
}

synth::ModelSpec mlp_spec() {
  synth::ModelSpec spec;
  spec.name = "walk_mlp";
  spec.input = synth::Shape3{1, 1, 8};
  spec.layers.push_back(synth::FcLayer{6, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  return spec;
}

// A walked view is never walked again: gc_scheduled() is the view
// itself, walk_view() a copy, and copies and moves stay walked.
TEST(Circuit, WalkedViewIsItsOwnSchedule) {
  Rng rng(4711);
  const Circuit c = raw_dag(rng, 600);  // lane tags and a state register
  ASSERT_FALSE(c.gate_lanes.empty());
  ASSERT_FALSE(c.walked());
  const Circuit v = walk_view(c);
  ASSERT_TRUE(v.walked());
  EXPECT_TRUE(same_netlist(v, *c.gc_scheduled()));
  EXPECT_EQ(v.gc_scheduled().get(), &v);
  EXPECT_EQ(v.gc_scheduled().use_count(), 0);  // non-owning alias
  EXPECT_TRUE(same_netlist(walk_view(v), v));
  EXPECT_TRUE(walk_view(v).walked());

  const Circuit copy = v;
  EXPECT_TRUE(copy.walked());
  EXPECT_EQ(copy.gc_scheduled().get(), &copy);
  Circuit assigned;
  assigned = copy;
  EXPECT_TRUE(assigned.walked());
  const Circuit moved = std::move(assigned);
  EXPECT_TRUE(moved.walked());
  EXPECT_TRUE(same_netlist(moved, v));
}

// walk_chain's links are the cached views gate for gate, carry no lane
// tags and no spare gate capacity; walking a walked chain is a no-op.
TEST(WalkChain, MatchesCachedViews) {
  Rng rng(5150);
  const std::vector<std::vector<Circuit>> chains = {
      synth::compile_model_layers(mlp_spec()),
      {random_dag(rng, 800, /*with_lanes=*/true), raw_dag(rng, 500)}};
  ASSERT_FALSE(chains[1][0].gate_lanes.empty());
  for (const auto& chain : chains) {
    const std::vector<Circuit> walked = walk_chain(chain);
    ASSERT_EQ(walked.size(), chain.size());
    for (size_t i = 0; i < chain.size(); ++i) {
      EXPECT_TRUE(walked[i].walked()) << i;
      EXPECT_TRUE(same_netlist(walked[i], *chain[i].gc_scheduled())) << i;
      EXPECT_TRUE(walked[i].gate_lanes.empty()) << i;
      EXPECT_EQ(walked[i].gates.capacity(), walked[i].gates.size()) << i;
    }
    const std::vector<Circuit> again = walk_chain(walked);
    for (size_t i = 0; i < chain.size(); ++i)
      EXPECT_TRUE(same_netlist(again[i], walked[i])) << i;
  }
}

// One inference over `chain` from one seed: the garbler's stream bytes,
// the outputs a two-party run decodes, and the offline artifact.
struct ChainRecord {
  std::vector<uint8_t> stream;
  BitVec decoded;
  GarbledMaterial mat;
};

ChainRecord record_chain(const std::vector<Circuit>& chain,
                         const BitVec& data, const BitVec& weights,
                         const GcOptions& gopt, const GcOptions& eopt) {
  const Block seed{31, 41};
  ChainRecord r;
  RecordChannel rec;
  Garbler g(rec, seed, gopt);
  Labels carried = g.fresh_zeros(chain.front().garbler_inputs.size());
  for (const Circuit& c : chain)
    carried = g.garble(c, carried,
                       g.fresh_known_zeros(c.evaluator_inputs.size()), {});
  r.stream = std::move(rec.bytes);
  run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, seed, gopt);
        r.decoded = session.run_chain(chain, data);
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch, eopt);
        (void)session.run_chain(chain, weights);
      });
  r.mat = garble_offline(chain, seed, gopt);
  return r;
}

// What the runtime serves (the walked chain, default options) puts the
// bytes of the construction-order chain on the wire, scalar and
// batched.
TEST(WalkChain, GarbleByteIdenticalToConstructionChain) {
  const std::vector<Circuit> chain = synth::compile_model_layers(mlp_spec());
  const std::vector<Circuit> walked = walk_chain(chain);
  Rng rng(8086);
  const BitVec data = random_bits(rng, chain.front().garbler_inputs.size());
  size_t n_weights = 0;
  for (const Circuit& c : chain) n_weights += c.evaluator_inputs.size();
  const BitVec weights = random_bits(rng, n_weights);
  BitVec expect = data;
  size_t used = 0;
  for (const Circuit& c : chain) {
    const size_t n = c.evaluator_inputs.size();
    expect = c.eval(expect, BitVec(weights.begin() + used,
                                   weights.begin() + used + n));
    used += n;
  }

  for (const bool scalar : {true, false}) {
    GcOptions opt;
    if (scalar) opt.pipeline = GcPipeline::kScalar;
    const ChainRecord a = record_chain(chain, data, weights, opt, opt);
    const ChainRecord b = record_chain(walked, data, weights, opt, opt);
    EXPECT_EQ(a.stream, b.stream) << "scalar=" << scalar;
    EXPECT_EQ(a.decoded, expect) << "scalar=" << scalar;
    EXPECT_EQ(b.decoded, expect) << "scalar=" << scalar;
    EXPECT_EQ(a.mat.fingerprint, b.mat.fingerprint) << "scalar=" << scalar;
    EXPECT_EQ(b.mat.fingerprint, chain_fingerprint(chain));
    EXPECT_EQ(a.mat.delta, b.mat.delta) << "scalar=" << scalar;
    EXPECT_EQ(a.mat.data_zeros, b.mat.data_zeros) << "scalar=" << scalar;
    EXPECT_EQ(a.mat.eval_zeros, b.mat.eval_zeros) << "scalar=" << scalar;
    EXPECT_EQ(a.mat.decode_bits, b.mat.decode_bits) << "scalar=" << scalar;
    EXPECT_EQ(a.mat.tables, b.mat.tables) << "scalar=" << scalar;
  }

  // The schedule = false seam walks a walked chain as given: the same
  // bytes as the default.
  GcOptions off;
  off.schedule = false;
  EXPECT_EQ(record_chain(walked, data, weights, off, off).stream,
            record_chain(walked, data, weights, {}, {}).stream);
  EXPECT_EQ(chain_fingerprint(walked, /*scheduled=*/false),
            chain_fingerprint(chain));
}

TEST(Schedule, LaneTagsSurviveSchedulingAndValidate) {
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kEvaluator);
  b.set_lane(3);
  const Wire u = b.and_(x, y);
  b.set_lane(9);
  const Wire v = b.and_(b.xor_(x, y), y);
  b.output(b.xor_(u, v));
  const Circuit c = b.build();
  ASSERT_EQ(c.gate_lanes.size(), c.gates.size());

  const ScheduleResult r = schedule_circuit(c);
  ASSERT_EQ(r.circuit.gate_lanes.size(), r.circuit.gates.size());
  for (size_t i = 0; i < r.gate_map.size(); ++i)
    EXPECT_EQ(r.circuit.gate_lanes[i], c.gate_lanes[r.gate_map[i]]);
}

}  // namespace
}  // namespace deepsecure
