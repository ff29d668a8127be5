// Linear layers by OT multiplication (synth/served.h, runtime/front.h):
// the flipped front's correlations share x*w exactly for XOR-shared x,
// and each served stage (front + share circuit + the non-linear layers
// after it) computes exactly what the reference layers compute, neuron
// by neuron: floor(sum x*w / 2^f) + b mod 2^n, truncated once.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/benchmark_zoo.h"
#include "net/party.h"
#include "net/tcp_channel.h"
#include "runtime/client.h"
#include "runtime/frame.h"
#include "runtime/front.h"
#include "runtime/server.h"
#include "support/rng.h"
#include "synth/served.h"

namespace deepsecure {
namespace {

using runtime::client_share_bits;
using runtime::product_correlations;
using runtime::server_share_bits;

struct Shares {
  BitVec client, server;
};

using Words = std::vector<uint32_t>;

BitVec pack(const std::vector<int64_t>& v, FixedFormat fmt) {
  BitVec bits;
  for (int64_t x : v) {
    const BitVec b = Fixed::from_raw(x, fmt).to_bits();
    bits.insert(bits.end(), b.begin(), b.end());
  }
  return bits;
}

// A front with its vector OTs simulated in place (what gc/ot.h
// delivers): random pads for the server, pad + g_k*d for the client on
// every word of OT (i, k). Layer 0 (`hidden` false): the client's
// choice bits are x itself, the server's shares empty (zero). A hidden
// layer: x XOR-shared as a stage's chain leaves it, random client bits
// g (the permute bits of its zero labels), server bits e = x ^ g.
Shares share_locally(const synth::FrontPlan& plan,
                     const std::vector<int64_t>& x,
                     const std::vector<int64_t>& w, Rng& rng, bool hidden) {
  BitVec g = pack(x, plan.fmt), e;
  if (hidden) {
    e = g;
    for (size_t i = 0; i < g.size(); ++i) {
      g[i] = static_cast<uint8_t>(rng.next_u64() & 1u);
      e[i] ^= g[i];
    }
  }
  const Words d = product_correlations(plan, w, e);
  const Words offset = runtime::ot_offsets(plan);
  Words pads(d.size()), got(d.size());
  for (size_t j = 0; j + 1 < offset.size(); ++j)
    for (uint32_t k = offset[j]; k < offset[j + 1]; ++k) {
      pads[k] = static_cast<uint32_t>(rng.next_u64());
      got[k] = pads[k] + (g[j] ? d[k] : 0u);
    }
  return {client_share_bits(plan, got), server_share_bits(plan, pads, w, e)};
}

// One neuron's share: the 28 bits of a party's sum.
uint32_t neuron_share(const BitVec& bits) {
  uint32_t v = 0;
  for (size_t i = 0; i < 28; ++i) v |= uint32_t{bits[i]} << i;
  return v;
}

std::vector<int64_t> random_raw(Rng& rng, size_t n, FixedFormat fmt) {
  const int64_t half = int64_t{1} << (fmt.total_bits - 1);
  std::vector<int64_t> v(n);
  for (int64_t& x : v)
    x = static_cast<int64_t>(rng.next_below(uint64_t(2 * half))) - half;
  return v;
}

// Every 16-bit x, each split into XOR shares by random label lsbs,
// times the ring's corners and a random weight: the flipped front's
// shares add up to x*w (x sign-extended) mod 2^28, with no conversion
// of the XOR shares first.
TEST(FrontShares, ExhaustiveXorSharedInputTimesWeight) {
  const FixedFormat fmt = kDefaultFormat;
  const synth::FrontPlan plan = synth::front_plan(
      synth::Shape3{1, 1, 1}, synth::FcLayer{1, {}, false}, fmt);
  ASSERT_EQ(plan.ots(), 16u);
  ASSERT_EQ(plan.correlations(), 16u);
  Rng rng(2);
  const uint32_t mask = (uint32_t{1} << 28) - 1;
  size_t bad = 0;
  for (const int64_t w : {int64_t{1}, int64_t{-1}, int64_t{-32768},
                          int64_t{32767}, int64_t{12345}}) {
    for (int64_t x = -32768; x < 32768; ++x) {
      const Shares s = share_locally(plan, {x}, {w}, rng, /*hidden=*/true);
      if (((neuron_share(s.client) + neuron_share(s.server)) & mask) !=
          (static_cast<uint32_t>(x * w) & mask))
        ++bad;
    }
  }
  EXPECT_EQ(bad, 0u);
}

// Every 16-bit weight against x in {0, +-1, INT16_MIN, INT16_MAX} and a
// few random x, each with a random bias on fresh random shares, for
// layer 0 and for a hidden layer (x XOR-shared): the neuron's shares
// add up to x*w + b*2^f mod 2^28, and the share circuit's output is
// floor(x*w / 2^f) + b mod 2^16.
void expect_exhaustive_truncation(bool hidden) {
  const FixedFormat fmt = kDefaultFormat;
  const synth::FrontPlan plan = synth::front_plan(
      synth::Shape3{1, 1, 1}, synth::FcLayer{1, {}, true}, fmt);
  ASSERT_EQ(plan.products.size(), 1u);
  const Circuit c = synth::share_circuit(plan, "one_product");
  Rng rng(hidden ? 3 : 1);
  std::vector<int64_t> xs = {0, 1, -1, -32768, 32767};
  for (const int64_t x : random_raw(rng, 3, fmt)) xs.push_back(x);
  const uint32_t mask = (uint32_t{1} << 28) - 1;
  size_t bad_sum = 0, bad_trunc = 0;
  std::string first;
  for (const int64_t x : xs) {
    for (int64_t w = -32768; w < 32768; ++w) {
      const int64_t bias = random_raw(rng, 1, fmt)[0];
      const Shares s = share_locally(plan, {x}, {w, bias}, rng, hidden);
      if (((neuron_share(s.client) + neuron_share(s.server)) & mask) !=
          (static_cast<uint32_t>(x * w + bias * 4096) & mask))
        ++bad_sum;
      const int64_t want =
          (Fixed::from_product_sum(x * w, fmt) + Fixed(bias, fmt)).raw();
      if (from_bits(c.eval(s.client, s.server)) !=
          (static_cast<uint64_t>(want) & 0xffff)) {
        if (bad_trunc++ == 0)
          first = "x=" + std::to_string(x) + " w=" + std::to_string(w);
      }
    }
  }
  EXPECT_EQ(bad_sum, 0u);
  EXPECT_EQ(bad_trunc, 0u) << "first mismatch: " << first;
}

TEST(FrontShares, ExhaustiveNeuronMatchesTruncatedSum) {
  expect_exhaustive_truncation(/*hidden=*/false);
}

TEST(FrontShares, HiddenFrontOnXorSharesMatchesTruncatedSum) {
  expect_exhaustive_truncation(/*hidden=*/true);
}

synth::ModelSpec mlp_spec() {
  synth::ModelSpec spec;
  spec.name = "mlp";
  spec.input = synth::Shape3{1, 1, 8};
  spec.layers.push_back(synth::FcLayer{6, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  return spec;
}

const synth::ModelSpec& zoo_compact(const std::string& name) {
  static const std::vector<core::ZooEntry> zoo = core::paper_zoo();
  for (const core::ZooEntry& z : zoo)
    if (z.compact.name == name) return z.compact;
  throw std::runtime_error("no zoo model " + name);
}

// Index of each stage's linear layer in spec.layers.
std::vector<size_t> stage_layers(const synth::ModelSpec& spec) {
  std::vector<size_t> at;
  for (size_t i = 0; i < spec.layers.size(); ++i)
    if (std::holds_alternative<synth::FcLayer>(spec.layers[i]) ||
        std::holds_alternative<synth::ConvLayer>(spec.layers[i]))
      at.push_back(i);
  return at;
}

// Every served stage equals its reference layers (Circuit::eval over
// compile_model_layers): the share circuit on simulated shares (hidden
// stages on XOR-shared inputs), then the stage's non-linear
// layers, against the linear layer and the same layers in the
// reference chain.
void expect_stages_match_reference(const synth::ModelSpec& spec,
                                   size_t trials) {
  const synth::ServedModel served = synth::compile_served(spec);
  const std::vector<Circuit> ref = synth::compile_model_layers(spec);
  const std::vector<size_t> at = stage_layers(spec);
  ASSERT_EQ(served.stages.size(), at.size()) << spec.name;
  Rng rng(7);
  for (size_t s = 0; s < served.stages.size(); ++s) {
    const synth::ServedStage& stage = served.stages[s];
    const synth::FrontPlan& plan = stage.front;
    for (size_t t = 0; t < trials; ++t) {
      std::vector<int64_t> x = random_raw(rng, plan.inputs, spec.fmt);
      std::vector<int64_t> w = random_raw(rng, plan.weights, spec.fmt);
      if (t == 0) {  // the corners of the ring
        for (size_t i = 0; i < x.size(); ++i) x[i] = i % 2 ? 32767 : -32768;
        for (size_t i = 0; i < w.size(); ++i) w[i] = i % 3 ? -32768 : 32767;
      }
      const Shares sh = share_locally(plan, x, w, rng, /*hidden=*/s > 0);
      BitVec got = stage.chain[0].eval(sh.client, sh.server);
      BitVec want = ref[at[s]].eval(pack(x, spec.fmt), pack(w, spec.fmt));
      for (size_t k = 1; k < stage.chain.size(); ++k) {
        got = stage.chain[k].eval(got, {});
        want = ref[at[s] + k].eval(want, {});
      }
      EXPECT_EQ(got, want) << spec.name << " stage " << s << " trial " << t;
    }
  }
}

TEST(ServedStages, MatchReferenceLayersMlp) {
  expect_stages_match_reference(mlp_spec(), 200);
}

TEST(ServedStages, MatchReferenceLayersB1pp) {
  expect_stages_match_reference(zoo_compact("b1_pp"), 3);
}

TEST(ServedStages, MatchReferenceLayersB3pp) {
  expect_stages_match_reference(zoo_compact("b3_pp"), 2);
}

// The share circuit equals the reference layer on a masked FC without
// bias whose neuron 1 has no terms at all.
TEST(ShareCircuit, MatchesReferenceMaskedFcWithoutBias) {
  synth::ModelSpec spec;
  spec.name = "masked";
  spec.input = synth::Shape3{1, 1, 6};
  synth::FcLayer fc{4, std::vector<uint8_t>(24, 1), false};
  for (size_t i = 0; i < 6; ++i) fc.mask[6 + i] = 0;  // neuron 1: no terms
  fc.mask[0] = fc.mask[13] = fc.mask[23] = 0;
  spec.layers.push_back(fc);
  expect_stages_match_reference(spec, 50);
}

// b2_pp's and b4_pp's reference FC netlists (up to about 130 M gates)
// are too big to compile in a unit test. Their linear layers are plain
// masked FCs, so every stage's share circuit is checked against the
// fixed-point arithmetic the reference layer computes (full products
// summed, truncated once, biased mod 2^16; test_layer_circuits holds
// the reference circuit to the same arithmetic), the hidden ones on
// XOR-shared inputs.
TEST(ShareCircuit, MatchesFixedArithmeticB2ppAndB4pp) {
  for (const char* name : {"b2_pp", "b4_pp"}) {
    const synth::ModelSpec& spec = zoo_compact(name);
    synth::Shape3 shape = spec.input;
    Rng rng(11);
    size_t stage = 0;
    for (const synth::LayerSpec& layer : spec.layers) {
      const synth::Shape3 in = shape;
      shape = synth::layer_output_shape(shape, layer);
      if (!std::holds_alternative<synth::FcLayer>(layer)) continue;
      const synth::FrontPlan plan = synth::front_plan(in, layer, spec.fmt);
      const Circuit c = synth::share_circuit(plan, spec.name + ".front");
      const std::vector<int64_t> x = random_raw(rng, plan.inputs, spec.fmt);
      const std::vector<int64_t> w = random_raw(rng, plan.weights, spec.fmt);
      const Shares s = share_locally(plan, x, w, rng, stage++ > 0);
      std::vector<int64_t> want;
      for (size_t j = 0; j < plan.neurons(); ++j) {
        int64_t sum = 0;
        for (size_t p = plan.first[j]; p < plan.first[j + 1]; ++p)
          sum += x[plan.products[p].input] * w[plan.products[p].weight];
        Fixed acc = Fixed::from_product_sum(sum, spec.fmt);
        if (plan.bias[j] != synth::FrontPlan::kNoBias)
          acc = acc + Fixed(w[plan.bias[j]], spec.fmt);
        want.push_back(acc.raw());
      }
      EXPECT_EQ(c.eval(s.client, s.server), pack(want, spec.fmt))
          << name << " stage " << stage - 1;
    }
    EXPECT_EQ(stage, 3u) << name;
  }
}

// b3_pp's served stages: layer 0's and layer 2's fronts, their share
// circuits, and the non-linear layers exactly as compile_model_layers
// builds them. No served chain garbles a multiplier.
TEST(CompileServed, B3ppStages) {
  const synth::ModelSpec& spec = zoo_compact("b3_pp");
  const synth::ServedModel m = synth::compile_served(spec);
  ASSERT_EQ(m.stages.size(), 2u);
  const synth::ServedStage& s0 = m.stages[0];
  EXPECT_EQ(s0.front.products.size(), 5082u);
  EXPECT_EQ(s0.front.inputs, 308u);
  EXPECT_EQ(s0.front.ots(), 308u * 16);  // one OT per input bit
  EXPECT_EQ(s0.front.correlations(), 81312u);
  EXPECT_EQ(runtime::front_bytes(s0.front), 404104u);
  EXPECT_EQ(s0.front.share_bits(), 50u * 28);
  ASSERT_EQ(s0.chain.size(), 2u);  // share circuit, tanh
  const Circuit& c = s0.chain.front();
  EXPECT_EQ(c.garbler_inputs.size(), 50u * 28);
  EXPECT_EQ(c.evaluator_inputs.size(), 50u * 28);
  EXPECT_EQ(c.outputs.size(), 50u * 16);
  const synth::ServedStage& s1 = m.stages[1];
  EXPECT_EQ(s1.front.inputs, 50u);
  EXPECT_EQ(s1.front.ots(), 800u);
  EXPECT_EQ(s1.front.correlations(), 6864u);
  EXPECT_EQ(runtime::front_bytes(s1.front), 40264u);
  ASSERT_EQ(s1.chain.size(), 2u);  // share circuit, argmax
  EXPECT_EQ(s1.chain[0].outputs.size(), 26u * 16);
  EXPECT_EQ(chain_fingerprint({synth::compile_layer(spec, 1)}),
            chain_fingerprint({s0.chain[1]}));
  EXPECT_EQ(chain_fingerprint({synth::compile_layer(spec, 3)}),
            chain_fingerprint({s1.chain[1]}));
}

// The share circuits of b3_pp cost one 28-bit adder per neuron, 50 +
// 26 of them, whatever the products per neuron: 27 ANDs and 28 share
// bits per party each. A per-product carry (12 ANDs and 12 share bits
// per product, 5,082 + 429 products) fails here.
TEST(ShareCircuit, B3ppOneAdderPerNeuron) {
  const synth::ServedModel m = synth::compile_served(zoo_compact("b3_pp"));
  size_t neurons = 0, ands = 0, bits = 0;
  for (const synth::ServedStage& stage : m.stages) {
    neurons += stage.front.neurons();
    ands += stage.chain.front().stats().num_and;
    bits += stage.front.share_bits();
    EXPECT_EQ(stage.chain.front().garbler_inputs.size(),
              stage.front.share_bits());
  }
  EXPECT_EQ(neurons, 76u);
  EXPECT_EQ(ands, neurons * 27);
  EXPECT_EQ(ands, 2052u);
  EXPECT_EQ(bits, neurons * 28);
  EXPECT_EQ(bits, 2128u);
}

// Two adjacent linear layers give a stage of the share circuit alone.
TEST(CompileServed, AdjacentLinearLayersGiveAShareCircuitStage) {
  synth::ModelSpec two = mlp_spec();
  two.layers = {synth::FcLayer{6, {}, true}, synth::FcLayer{3, {}, true},
                synth::ArgmaxLayer{}};
  const synth::ServedModel m = synth::compile_served(two);
  ASSERT_EQ(m.stages.size(), 2u);
  EXPECT_EQ(m.stages[0].chain.size(), 1u);
  EXPECT_EQ(m.stages[1].chain.size(), 2u);
  expect_stages_match_reference(two, 50);
}

// Pinned hello fingerprints (v9 and v10) of two served models: every stage's
// scheduled chain mixed with its front plan. Any change to the share
// circuit, the non-linear layers, the scheduling pass or a plan's
// product order moves them, and with them the wire bytes of every
// inference. (The reference chains' own pins live in test_circuit.)
TEST(CompileServed, PinnedServedFingerprints) {
  EXPECT_EQ(runtime::served_fingerprint(synth::compile_served(mlp_spec())),
            0xf01dc99073177b79ull);
  EXPECT_EQ(
      runtime::served_fingerprint(synth::compile_served(zoo_compact("b3_pp"))),
      0x0cdf9cb7b2530d72ull);
}

TEST(CompileServed, RejectsNonLinearFirstLayer) {
  synth::ModelSpec spec;
  spec.name = "pool_first";
  spec.input = synth::Shape3{4, 4, 1};
  spec.layers.push_back(synth::PoolLayer{});
  EXPECT_THROW(synth::compile_served(spec), std::invalid_argument);
}

// The exchanges on real sessions: a layer-0 front on the client's data,
// then a hidden front on XOR shares, each one round trip of vector OTs
// on the session's reverse extension and exactly front_bytes(plan) on
// the wire; the share circuit on the two parties' bits equals the
// reference layer both times.
TEST(FrontExchange, SessionsShareTheProducts) {
  const synth::ModelSpec spec = mlp_spec();
  const synth::ServedModel served = synth::compile_served(spec);
  const std::vector<Circuit> ref = synth::compile_model_layers(spec);
  const synth::FrontPlan& p0 = served.stages[0].front;
  const synth::FrontPlan& p1 = served.stages[1].front;
  Rng rng(5);
  const std::vector<int64_t> x0 = random_raw(rng, p0.inputs, spec.fmt);
  const std::vector<int64_t> w0 = random_raw(rng, p0.weights, spec.fmt);
  const std::vector<int64_t> x1 = random_raw(rng, p1.inputs, spec.fmt);
  const std::vector<int64_t> w1 = random_raw(rng, p1.weights, spec.fmt);
  // x1 XOR-shared, as stage 0's chain would leave it.
  const BitVec x1_bits = pack(x1, spec.fmt);
  BitVec g(x1_bits.size()), e(x1_bits.size());
  for (size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<uint8_t>(rng.next_u64() & 1u);
    e[i] = x1_bits[i] ^ g[i];
  }
  BitVec c0, s0, c1, s1;
  double front_s = -1;
  uint64_t bytes0 = 0, bytes1 = 0;
  run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, Block{3, 4});
        session.send_fixed_labels({}, Block{0, 1});  // the OT setup
        const auto wire = [&] { return ch.bytes_sent() + ch.bytes_received(); };
        uint64_t b = wire();
        c0 = runtime::front_send(session, p0, pack(x0, spec.fmt));
        bytes0 = wire() - b;
        b = wire();
        c1 = runtime::front_send(session, p1, g);
        bytes1 = wire() - b;
        front_s = session.trace().front_s;
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch);
        session.recv_fixed_labels({});
        s0 = runtime::front_recv(session, p0, w0, {});
        s1 = runtime::front_recv(session, p1, w1, e);
      });
  EXPECT_EQ(served.stages[0].chain[0].eval(c0, s0),
            ref[0].eval(pack(x0, spec.fmt), pack(w0, spec.fmt)));
  EXPECT_EQ(served.stages[1].chain[0].eval(c1, s1),
            ref[2].eval(x1_bits, pack(w1, spec.fmt)));
  EXPECT_GT(front_s, 0.0);
  EXPECT_EQ(bytes0, runtime::front_bytes(p0));
  EXPECT_EQ(bytes1, runtime::front_bytes(p1));
  EXPECT_EQ(bytes0, 8 + 128 * 16 + 4 * 48 * 16u);  // 128 OTs, 48 products
  EXPECT_EQ(bytes1, 8 + 128 * 12 + 4 * 18 * 16u);  // 96 OTs, 18 products
}

// The per-input product index of a conv front (b1_pp) and of an FC
// front with pruned products (b3_pp): every product listed once, under
// its own input, in plan order.
TEST(FrontPlan, PerInputIndexListsEveryProductOnce) {
  for (const char* name : {"b1_pp", "b3_pp"}) {
    const synth::ServedModel served = synth::compile_served(zoo_compact(name));
    const synth::FrontPlan& plan = served.stages[0].front;
    ASSERT_EQ(plan.use_first.size(), plan.inputs + 1) << name;
    ASSERT_EQ(plan.use_first.back(), plan.products.size()) << name;
    std::vector<uint8_t> seen(plan.products.size(), 0);
    for (size_t i = 0; i < plan.inputs; ++i)
      for (size_t u = plan.use_first[i]; u < plan.use_first[i + 1]; ++u) {
        const uint32_t p = plan.uses[u];
        EXPECT_EQ(plan.products[p].input, i) << name;
        if (u > plan.use_first[i]) {
          EXPECT_LT(plan.uses[u - 1], p) << name;
        }
        ++seen[p];
      }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
              static_cast<ptrdiff_t>(plan.products.size()))
        << name;
  }
}

// A pooled artifact opens only its last stage: a push whose non-final
// stage carries decode bits (the client's XOR shares) is refused, so
// the artifacts a real client pushes, which the server stores, carry
// empty decode bits on every non-final stage.
TEST(PooledArtifact, NonFinalStagesCarryNoDecodeBits) {
  const synth::ModelSpec spec = mlp_spec();
  const synth::ServedModel served = synth::compile_served(spec);
  ASSERT_EQ(served.stages.size(), 2u);
  Rng rng(13);
  BitVec weights;
  for (int64_t v :
       random_raw(rng, synth::model_weight_count(spec), spec.fmt)) {
    const BitVec b = Fixed::from_raw(v, spec.fmt).to_bits();
    weights.insert(weights.end(), b.begin(), b.end());
  }
  runtime::InferenceServer server(spec, weights);
  server.start();
  {
    TcpChannel raw = TcpChannel::connect("127.0.0.1", server.port());
    raw.set_recv_timeout_ms(5000);
    runtime::Hello hello;
    hello.fingerprint = runtime::served_fingerprint(served);
    runtime::send_hello(raw, hello);
    ASSERT_EQ(runtime::recv_frame(raw).type, runtime::FrameType::kHelloAck);
    runtime::send_id_frame(raw, runtime::FrameType::kPrefetch, 1);
    // Stage 0 carrying decode bits, one per output: refused as soon as
    // their count arrives.
    raw.send_bits(BitVec(served.stages[0].chain.back().outputs.size(), 0));
    EXPECT_THROW(
        try { runtime::recv_frame(raw); } catch (const std::exception& e) {
          EXPECT_NE(std::string(e.what()).find("oversized"), std::string::npos)
              << e.what();
          throw;
        },
        std::runtime_error);
  }
  runtime::ClientConfig cfg;
  cfg.pool_target = 1;
  cfg.auto_top_up = false;
  runtime::InferenceClient client("127.0.0.1", server.port(), spec, cfg);
  EXPECT_EQ(client.prefetch(1), 1u);
  client.close();
  server.stop();
  EXPECT_EQ(server.materials_prefetched(), 1u);
}

}  // namespace
}  // namespace deepsecure
