// Layer 0 by OT multiplication (synth/served.h, runtime/front.h): the
// share circuit over Gilboa shares computes exactly what the reference
// layer 0 computes, product by product and neuron by neuron.
#include <gtest/gtest.h>

#include <string>

#include "core/benchmark_zoo.h"
#include "net/party.h"
#include "runtime/frame.h"
#include "runtime/front.h"
#include "support/rng.h"
#include "synth/served.h"

namespace deepsecure {
namespace {

using runtime::client_share_bits;
using runtime::front_choices;
using runtime::front_correlations;
using runtime::server_share_bits;

struct Shares {
  BitVec client, server;
};

// The front with the OTs simulated in place: random pads, the receiver
// gets pad + b*delta (what gc/ot.h's arithmetic OT delivers).
Shares share_locally(const synth::FrontPlan& plan,
                     const std::vector<int64_t>& x,
                     const std::vector<int64_t>& w, Rng& rng) {
  const std::vector<uint32_t> d = front_correlations(plan, x);
  const BitVec b = front_choices(plan, w);
  std::vector<uint32_t> pads(d.size()), got(d.size());
  for (size_t j = 0; j < d.size(); ++j) {
    pads[j] = static_cast<uint32_t>(rng.next_u64());
    got[j] = pads[j] + (b[j] ? d[j] : 0u);
  }
  return {client_share_bits(plan, pads), server_share_bits(plan, got, w)};
}

BitVec pack(const std::vector<int64_t>& v, FixedFormat fmt) {
  BitVec bits;
  for (int64_t x : v) {
    const BitVec b = Fixed::from_raw(x, fmt).to_bits();
    bits.insert(bits.end(), b.begin(), b.end());
  }
  return bits;
}

std::vector<int64_t> random_raw(Rng& rng, size_t n, FixedFormat fmt) {
  const int64_t half = int64_t{1} << (fmt.total_bits - 1);
  std::vector<int64_t> v(n);
  for (int64_t& x : v)
    x = static_cast<int64_t>(rng.next_below(uint64_t(2 * half))) - half;
  return v;
}

// Every 16-bit weight against x in {0, +-1, INT16_MIN, INT16_MAX} and a
// few random x, each on fresh random shares: the shares add up to x*w
// mod 2^28, and the share circuit's truncation equals Fixed::operator*.
TEST(FrontShares, ExhaustiveTruncationMatchesFixedMultiply) {
  const FixedFormat fmt = kDefaultFormat;
  const synth::FrontPlan plan = synth::front_plan(
      synth::Shape3{1, 1, 1}, synth::FcLayer{1, {}, false}, fmt);
  ASSERT_EQ(plan.products.size(), 1u);
  const Circuit c = synth::share_circuit(plan, "one_product");
  Rng rng(1);
  std::vector<int64_t> xs = {0, 1, -1, -32768, 32767};
  for (const int64_t x : random_raw(rng, 3, fmt)) xs.push_back(x);
  const uint32_t mask = (uint32_t{1} << 28) - 1;
  size_t bad_sum = 0, bad_trunc = 0;
  std::string first;
  for (const int64_t x : xs) {
    for (int64_t w = -32768; w < 32768; ++w) {
      const Shares s = share_locally(plan, {x}, {w}, rng);
      // One product: 12 low bits, then the 16 high bits of each share.
      const auto share = [](const BitVec& bits) {
        uint32_t v = 0;
        for (size_t i = 0; i < 28; ++i) v |= uint32_t{bits[i]} << i;
        return v;
      };
      if (((share(s.client) + share(s.server)) & mask) !=
          (static_cast<uint32_t>(x * w) & mask))
        ++bad_sum;
      const int64_t want = (Fixed(x, fmt) * Fixed(w, fmt)).raw();
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

// The share circuit equals the reference layer 0 (Circuit::eval over
// compile_model_layers) on `spec`'s first layer.
void expect_matches_reference_layer(const synth::ModelSpec& spec,
                                    size_t trials) {
  synth::ModelSpec first = spec;
  first.layers.resize(1);
  const Circuit ref = synth::compile_model_layers(first).front();
  const synth::FrontPlan plan =
      synth::front_plan(spec.input, spec.layers.front(), spec.fmt);
  const Circuit c = synth::share_circuit(plan, spec.name + ".front");
  ASSERT_EQ(c.outputs.size(), ref.outputs.size()) << spec.name;
  Rng rng(7);
  for (size_t t = 0; t < trials; ++t) {
    std::vector<int64_t> x = random_raw(rng, plan.inputs, spec.fmt);
    std::vector<int64_t> w = random_raw(rng, plan.weights, spec.fmt);
    if (t == 0) {  // the corners of the ring
      for (size_t i = 0; i < x.size(); ++i) x[i] = i % 2 ? 32767 : -32768;
      for (size_t i = 0; i < w.size(); ++i) w[i] = i % 3 ? -32768 : 32767;
    }
    const Shares s = share_locally(plan, x, w, rng);
    EXPECT_EQ(c.eval(s.client, s.server),
              ref.eval(pack(x, spec.fmt), pack(w, spec.fmt)))
        << spec.name << " trial " << t;
  }
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

TEST(ShareCircuit, MatchesReferenceLayer0Mlp) {
  expect_matches_reference_layer(mlp_spec(), 200);
}

TEST(ShareCircuit, MatchesReferenceLayer0MaskedFcWithoutBias) {
  synth::ModelSpec spec;
  spec.name = "masked";
  spec.input = synth::Shape3{1, 1, 6};
  synth::FcLayer fc{4, std::vector<uint8_t>(24, 1), false};
  for (size_t i = 0; i < 6; ++i) fc.mask[6 + i] = 0;  // neuron 1: no terms
  fc.mask[0] = fc.mask[13] = fc.mask[23] = 0;
  spec.layers.push_back(fc);
  expect_matches_reference_layer(spec, 50);
}

TEST(ShareCircuit, MatchesReferenceLayer0ConvB1pp) {
  expect_matches_reference_layer(zoo_compact("b1_pp"), 3);
}

TEST(ShareCircuit, MatchesReferenceLayer0B3pp) {
  expect_matches_reference_layer(zoo_compact("b3_pp"), 2);
}

// b2_pp's and b4_pp's reference layer 0 netlists (about 27 M and 130 M
// gates) are too big to compile in a unit test. Their first layers are
// plain masked FCs, so they are checked against the fixed-point
// arithmetic the reference layer computes (x*w truncated, summed and
// biased mod 2^16; test_layer_circuits holds the reference circuit to
// the same arithmetic).
TEST(ShareCircuit, MatchesFixedArithmeticB2ppAndB4pp) {
  for (const char* name : {"b2_pp", "b4_pp"}) {
    const synth::ModelSpec& spec = zoo_compact(name);
    const synth::FrontPlan plan =
        synth::front_plan(spec.input, spec.layers.front(), spec.fmt);
    const Circuit c = synth::share_circuit(plan, spec.name + ".front");
    Rng rng(11);
    const std::vector<int64_t> x = random_raw(rng, plan.inputs, spec.fmt);
    const std::vector<int64_t> w = random_raw(rng, plan.weights, spec.fmt);
    const Shares s = share_locally(plan, x, w, rng);
    std::vector<int64_t> want;
    for (size_t j = 0; j < plan.neurons(); ++j) {
      Fixed acc(0, spec.fmt);
      for (size_t p = plan.first[j]; p < plan.first[j + 1]; ++p)
        acc = acc + Fixed(x[plan.products[p].input], spec.fmt) *
                        Fixed(w[plan.products[p].weight], spec.fmt);
      if (plan.bias[j] != synth::FrontPlan::kNoBias)
        acc = acc + Fixed(w[plan.bias[j]], spec.fmt);
      want.push_back(acc.raw());
    }
    EXPECT_EQ(c.eval(s.client, s.server), pack(want, spec.fmt)) << name;
  }
}

// The served chain of b3_pp: the share circuit's size, and layers 1..n
// exactly as compile_model_layers builds them.
TEST(CompileServed, B3ppShareCircuitAndTail) {
  const synth::ModelSpec& spec = zoo_compact("b3_pp");
  const synth::ServedModel m = synth::compile_served(spec);
  ASSERT_EQ(m.chain.size(), spec.layers.size());
  EXPECT_EQ(m.front.products.size(), 5082u);
  EXPECT_EQ(m.front.ots(), 81312u);
  EXPECT_EQ(m.front.share_bits(), 61784u);
  const Circuit& c = m.chain.front();
  EXPECT_EQ(c.garbler_inputs.size(), 61784u);
  EXPECT_EQ(c.evaluator_inputs.size(), 61784u);
  EXPECT_EQ(c.outputs.size(), 50u * 16);
  // One 12-AND carry per product dominates; the popcounts and the
  // per-neuron adders add about one AND per product more.
  EXPECT_LT(c.stats().num_and, 5082u * 14);
  const std::vector<Circuit> tail = synth::compile_model_layers(spec, 1);
  ASSERT_EQ(tail.size() + 1, m.chain.size());
  for (size_t k = 0; k < tail.size(); ++k)
    EXPECT_EQ(chain_fingerprint({tail[k]}), chain_fingerprint({m.chain[k + 1]}))
        << "layer " << k + 1;
}

// Pinned hello fingerprints (v8) of two served models: the scheduled
// served chain mixed with the front plan. Any change to the share
// circuit, layers 1..n, the scheduling pass or the plan's product order
// moves them, and with them the wire bytes of every inference. (The
// reference chains' own pins live in test_circuit.)
TEST(CompileServed, PinnedServedFingerprints) {
  EXPECT_EQ(runtime::served_fingerprint(synth::compile_served(mlp_spec())),
            0xfbec2de3fe9d493eull);
  EXPECT_EQ(
      runtime::served_fingerprint(synth::compile_served(zoo_compact("b3_pp"))),
      0xf9488a5ed2262021ull);
}

TEST(CompileServed, RejectsNonLinearFirstLayer) {
  synth::ModelSpec spec;
  spec.name = "pool_first";
  spec.input = synth::Shape3{4, 4, 1};
  spec.layers.push_back(synth::PoolLayer{});
  EXPECT_THROW(synth::compile_served(spec), std::invalid_argument);
}

// The exchange on real sessions: one round trip of arithmetic OTs on a
// fresh OT setup, then the share circuit on the two parties' bits
// equals the reference layer.
TEST(FrontExchange, SessionsShareTheProducts) {
  const synth::ModelSpec spec = mlp_spec();
  const synth::FrontPlan plan =
      synth::front_plan(spec.input, spec.layers.front(), spec.fmt);
  synth::ModelSpec first = spec;
  first.layers.resize(1);
  const Circuit ref = synth::compile_model_layers(first).front();
  const Circuit c = synth::share_circuit(plan, "mlp.front");
  Rng rng(5);
  const std::vector<int64_t> x = random_raw(rng, plan.inputs, spec.fmt);
  const std::vector<int64_t> w = random_raw(rng, plan.weights, spec.fmt);
  BitVec client, server;
  double front_s = -1;
  run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, Block{3, 4});
        client = runtime::front_send(session, plan, pack(x, spec.fmt));
        front_s = session.trace().front_s;
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch);
        server = runtime::front_recv(session, plan, w);
      });
  EXPECT_EQ(c.eval(client, server), ref.eval(pack(x, spec.fmt), pack(w, spec.fmt)));
  EXPECT_GT(front_s, 0.0);
}

}  // namespace
}  // namespace deepsecure
