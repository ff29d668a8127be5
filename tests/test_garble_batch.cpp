// Regression tests for the batched fixed-key hashing pipeline: the
// batched garbler/evaluator must be byte- and label-identical to the
// retained scalar reference path for the same seed, including circuits
// with AND->AND chains that force mid-window flushes and circuits wide
// enough to overflow the batch window.
#include <gtest/gtest.h>

#include <climits>
#include <stdexcept>

#include "circuit/bench_circuits.h"
#include "circuit/builder.h"
#include "gc/garble.h"
#include "net/party.h"
#include "support/rng.h"
#include "synth/mult.h"

namespace deepsecure {
namespace {

// Sink channel that records every byte the garbler sends. The garbling
// pass itself never receives, so recv is a hard error.
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

struct GarbleTrace {
  std::vector<uint8_t> stream;  // constants + garbled tables, in order
  Labels outputs;
  Labels state_next;
};

GarbleTrace garble_trace(const Circuit& c, Block seed, const GcOptions& opt) {
  RecordChannel ch;
  Garbler g(ch, seed, opt);
  GarbleTrace t;
  const Labels gz = g.fresh_zeros(c.garbler_inputs.size());
  const Labels ez = g.fresh_known_zeros(c.evaluator_inputs.size());
  const Labels sz = g.fresh_zeros(c.state_inputs.size());
  t.outputs = g.garble(c, gz, ez, sz, &t.state_next);
  t.stream = std::move(ch.bytes);
  return t;
}

void expect_pipelines_identical(const Circuit& c, Block seed) {
  const GarbleTrace scalar =
      garble_trace(c, seed, {.pipeline = GcPipeline::kScalar});
  const GarbleTrace batched =
      garble_trace(c, seed, {.pipeline = GcPipeline::kBatched});
  EXPECT_EQ(scalar.stream, batched.stream) << "table byte stream diverged";
  EXPECT_EQ(scalar.outputs, batched.outputs) << "output labels diverged";
  EXPECT_EQ(scalar.state_next, batched.state_next);
}

Circuit random_mixed_circuit(Rng& rng, int n_gates) {
  Builder b;
  std::vector<Wire> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kGarbler));
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kEvaluator));
  for (int g = 0; g < n_gates; ++g) {
    const Wire a = pool[rng.next_below(pool.size())];
    const Wire y = pool[rng.next_below(pool.size())];
    switch (rng.next_below(4)) {
      case 0: pool.push_back(b.xor_(a, y)); break;
      case 1: pool.push_back(b.and_(a, y)); break;
      case 2: pool.push_back(b.or_(a, y)); break;
      default: pool.push_back(b.not_(a)); break;
    }
  }
  for (int o = 0; o < 10; ++o)
    b.output(pool[pool.size() - 1 - static_cast<size_t>(o)]);
  return b.build();
}

TEST(GarbleBatch, AndChainForcesFlushEveryGate) {
  const Circuit c = bench_circuits::and_chain(64);
  // Every AND after the first reads a pending AND output (via the XOR),
  // so the schedule must contain a flush point per chained gate.
  EXPECT_GE(c.gc_flush_points()->size(), 63u);
  expect_pipelines_identical(c, Block{11, 22});
}

TEST(GarbleBatch, WideCircuitHasNoDependencyFlushes) {
  const Circuit c = bench_circuits::wide_and(3 * kGcMaxBatchWindow + 17);
  EXPECT_TRUE(c.gc_flush_points()->empty());
  // Exercises capacity flushes (> 3 windows) and the non-multiple tail.
  expect_pipelines_identical(c, Block{33, 44});
}

TEST(GarbleBatch, RandomMixedCircuitsByteIdentical) {
  Rng rng(2026);
  for (int trial = 0; trial < 10; ++trial) {
    const Circuit c = random_mixed_circuit(rng, 400);
    expect_pipelines_identical(c, Block{rng.next_u64(), rng.next_u64()});
  }
}

TEST(GarbleBatch, SequentialStateCircuitByteIdentical) {
  // Ripple accumulator: carries make AND outputs feed the next gates.
  Builder b;
  std::vector<Wire> in(4);
  for (auto& w : in) w = b.input(Party::kGarbler);
  std::vector<Wire> acc = b.state_inputs(8);
  std::vector<Wire> next(8);
  Wire carry = b.const_bit(false);
  for (int i = 0; i < 8; ++i) {
    const Wire ai = i < 4 ? in[i] : b.const_bit(false);
    const Wire axc = b.xor_(acc[i], carry);
    const Wire bxc = b.xor_(ai, carry);
    next[i] = b.xor_(axc, ai);
    carry = b.xor_(carry, b.and_(axc, bxc));
  }
  b.set_state_next(next);
  b.outputs(next);
  expect_pipelines_identical(b.build(), Block{55, 66});
}

// Byte-identity means the pipelines interoperate: run every combination
// of {scalar,batched} garbler x evaluator end-to-end and decode.
TEST(GarbleBatch, CrossPipelineTwoPartyAgreesWithPlaintext) {
  Rng rng(31337);
  const Circuit c = random_mixed_circuit(rng, 300);
  BitVec g_bits(8), e_bits(8);
  for (auto& v : g_bits) v = rng.next_bool();
  for (auto& v : e_bits) v = rng.next_bool();
  const BitVec expect = c.eval(g_bits, e_bits);

  for (const GcPipeline gp : {GcPipeline::kScalar, GcPipeline::kBatched}) {
    for (const GcPipeline ep : {GcPipeline::kScalar, GcPipeline::kBatched}) {
      BitVec decoded;
      run_two_party(
          [&](Channel& ch) {
            Garbler g(ch, Block{42, 42}, gp);
            const Labels gz = g.fresh_zeros(g_bits.size());
            const Labels ez = g.fresh_known_zeros(e_bits.size());
            g.send_active(g_bits, gz);
            std::vector<Block> active(e_bits.size());
            for (size_t i = 0; i < e_bits.size(); ++i)
              active[i] = e_bits[i] ? (ez[i] ^ g.delta()) : ez[i];
            ch.send_bytes(active.data(), active.size() * sizeof(Block));
            const Labels out = g.garble(c, gz, ez, {});
            decoded = g.decode_outputs(out);
          },
          [&](Channel& ch) {
            Evaluator e(ch, ep);
            const Labels gl = e.recv_active(g_bits.size());
            const Labels el = e.recv_active(e_bits.size());
            const Labels out = e.evaluate(c, gl, el, {});
            e.send_outputs(out);
          });
      EXPECT_EQ(decoded, expect)
          << "garbler=" << int(gp) << " evaluator=" << int(ep);
    }
  }
}

// Random DAG over garbler, evaluator and state inputs with lane tags,
// so windows mix one-row ANDs (an evaluator-known operand) with
// two-row ones, followed by one wide level that alternates the two
// kinds gate by gate: wherever a capacity drain falls in it, it falls
// between a one-row and a two-row gate.
Circuit mixed_row_circuit(Rng& rng, int n_gates) {
  Builder b;
  const std::vector<Wire> garbled = b.inputs(Party::kGarbler, 8);
  const std::vector<Wire> known = b.inputs(Party::kEvaluator, 8);
  const std::vector<Wire> state = b.state_inputs(4);
  std::vector<Wire> pool = garbled;
  pool.insert(pool.end(), known.begin(), known.end());
  pool.insert(pool.end(), state.begin(), state.end());
  for (int g = 0; g < n_gates; ++g) {
    if (g % 5 == 0) b.set_lane(static_cast<uint32_t>(rng.next_below(4)));
    const Wire a = pool[rng.next_below(pool.size())];
    const Wire y = pool[rng.next_below(pool.size())];
    switch (rng.next_below(4)) {
      case 0: pool.push_back(b.xor_(a, y)); break;
      case 1: pool.push_back(b.and_(a, y)); break;
      case 2: pool.push_back(b.or_(a, y)); break;
      default: pool.push_back(b.not_(a)); break;
    }
  }
  const size_t base = pool.size();
  for (size_t i = 0; i < 2 * kGcMaxBatchWindow; ++i) {
    b.set_lane(static_cast<uint32_t>(i % 3));
    const Wire a = pool[base - 1 - i % 257];
    const Wire k = i % 2 == 0 ? known[i % known.size()]
                              : garbled[(i / 2) % garbled.size()];
    pool.push_back(b.and_(a, k));
  }
  b.set_state_next({pool[pool.size() - 1], pool[pool.size() - 2],
                    pool[pool.size() - 3], state[0]});
  for (int o = 0; o < 12; ++o)
    b.output(pool[pool.size() - 1 - static_cast<size_t>(o) * 7]);
  return b.build();
}

// Windows stage a variable number of rows per gate into one line:
// batched garbling must emit the same bytes as the scalar reference,
// and a pair of batched endpoints must decode to plaintext.
TEST(GarbleBatch, MixedRowWindowsByteIdenticalAndCorrect) {
  Rng rng(1919);
  for (int trial = 0; trial < 4; ++trial) {
    const Circuit c = mixed_row_circuit(rng, 300);
    const CircuitStats st = c.stats();
    ASSERT_GT(st.num_and_known, kGcMaxBatchWindow / 2) << trial;
    ASSERT_GT(st.num_and - st.num_and_known, kGcMaxBatchWindow / 2) << trial;

    const Block seed{rng.next_u64(), rng.next_u64()};
    const GarbleTrace scalar =
        garble_trace(c, seed, {.pipeline = GcPipeline::kScalar});
    const GarbleTrace batched = garble_trace(c, seed, {});
    EXPECT_EQ(scalar.stream, batched.stream) << trial;
    EXPECT_EQ(scalar.outputs, batched.outputs) << trial;
    EXPECT_EQ(scalar.state_next, batched.state_next) << trial;
    EXPECT_EQ(batched.stream.size(), 2 * sizeof(Block) + st.table_bytes());

    BitVec g_bits(c.garbler_inputs.size()), e_bits(c.evaluator_inputs.size()),
        s_bits(c.state_inputs.size());
    for (BitVec* v : {&g_bits, &e_bits, &s_bits})
      for (auto& bit : *v) bit = rng.next_bool();
    BitVec state = s_bits;
    const BitVec expect = c.eval(g_bits, e_bits, &state);
    BitVec decoded, decoded_state;
    run_two_party(
        [&](Channel& ch) {
          Garbler g(ch, seed);
          const Labels gz = g.fresh_zeros(g_bits.size());
          const Labels ez = g.fresh_known_zeros(e_bits.size());
          const Labels sz = g.fresh_zeros(s_bits.size());
          g.send_active(g_bits, gz);
          g.send_active(e_bits, ez);  // stands in for OT here
          g.send_active(s_bits, sz);
          Labels next;
          const Labels out = g.garble(c, gz, ez, sz, &next);
          decoded = g.decode_outputs(out);
          decoded_state = g.decode_outputs(next);
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
    EXPECT_EQ(decoded, expect) << trial;
    EXPECT_EQ(decoded_state, state) << trial;
  }
}

// A 64-lane layer of garbled x times weight: Booth multipliers whose
// digit flags are XORs of the evaluator's weight bits, so windows mix
// one-row ANDs (on a flag) with two-row adder ANDs. Scalar and batched
// garbling ship identical bytes, and the two-party run decodes to the
// plaintext fixed-point products.
TEST(GarbleBatch, BoothWeightLayerByteIdenticalAndDecodes) {
  constexpr size_t kLanes = 64;
  const FixedFormat fmt = kDefaultFormat;
  Builder b("booth_layer");
  for (uint32_t lane = 0; lane < kLanes; ++lane) {
    b.set_lane(lane);
    const synth::Bus x = synth::input_fixed(b, Party::kGarbler, fmt);
    const synth::Bus w = synth::input_fixed(b, Party::kEvaluator, fmt);
    b.outputs(synth::mult_fixed(b, x, w, fmt.frac_bits));
  }
  const Circuit c = b.build();
  const CircuitStats st = c.stats();
  ASSERT_EQ(st.num_and, kLanes * 423);
  ASSERT_EQ(st.num_and_known, kLanes * 275);

  const Block seed{0xb007b007u, 0x5eed};
  const GarbleTrace scalar =
      garble_trace(c, seed, {.pipeline = GcPipeline::kScalar});
  const GarbleTrace batched = garble_trace(c, seed, {});
  EXPECT_EQ(scalar.stream, batched.stream);
  EXPECT_EQ(scalar.outputs, batched.outputs);
  EXPECT_EQ(batched.stream.size(), 2 * sizeof(Block) + st.table_bytes());

  Rng rng(2020);
  const int64_t edges[] = {0, 1, -1, INT16_MIN, INT16_MAX};
  std::vector<Fixed> xs, ws;
  BitVec g_bits, e_bits;
  for (size_t i = 0; i < kLanes; ++i) {
    const auto pick = [&](size_t k) {
      return k < 5 ? Fixed::from_raw(edges[k], fmt)
                   : Fixed::from_raw(
                         deepsecure::sign_extend(rng.next_u64(), 16), fmt);
    };
    xs.push_back(pick(i % 8));
    ws.push_back(pick((i / 8) % 8));
    const BitVec xb = xs.back().to_bits(), wb = ws.back().to_bits();
    g_bits.insert(g_bits.end(), xb.begin(), xb.end());
    e_bits.insert(e_bits.end(), wb.begin(), wb.end());
  }
  BitVec decoded;
  run_two_party(
      [&](Channel& ch) {
        Garbler g(ch, seed);
        const Labels gz = g.fresh_zeros(g_bits.size());
        const Labels ez = g.fresh_known_zeros(e_bits.size());
        g.send_active(g_bits, gz);
        g.send_active(e_bits, ez);  // stands in for OT here
        decoded = g.decode_outputs(g.garble(c, gz, ez, {}));
      },
      [&](Channel& ch) {
        Evaluator e(ch, GcOptions{});
        const Labels gl = e.recv_active(g_bits.size());
        const Labels el = e.recv_active(e_bits.size());
        e.send_outputs(e.evaluate(c, gl, el, {}));
      });
  ASSERT_EQ(decoded.size(), kLanes * fmt.total_bits);
  for (size_t i = 0; i < kLanes; ++i) {
    const BitVec out(decoded.begin() + i * fmt.total_bits,
                     decoded.begin() + (i + 1) * fmt.total_bits);
    EXPECT_EQ(Fixed::from_bits(out, fmt).raw(), (xs[i] * ws[i]).raw())
        << "lane " << i << ": " << xs[i].raw() << " * " << ws[i].raw();
  }
}

TEST(GarbleBatch, FlushScheduleIsCachedAcrossCalls) {
  const Circuit c = bench_circuits::and_chain(8);
  const auto first = c.gc_flush_points();
  const auto second = c.gc_flush_points();
  EXPECT_EQ(first.get(), second.get());  // same cached vector
}

}  // namespace
}  // namespace deepsecure
