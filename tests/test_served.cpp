// Served differential: answers of the runtime (per stage a front and a
// garbled segment, on demand and pooled) against the plaintext
// reference chain (Circuit::eval over compile_model_layers), on a small
// MLP (with ReLU and with a CORDIC sigmoid) and on the paper's
// pre-processed Benchmarks 1 and 3; the exact wire bytes of one
// on-demand inference; and that no served chain takes a weight bit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/benchmark_zoo.h"
#include "obs/metrics.h"
#include "runtime/client.h"
#include "runtime/server.h"
#include "support/rng.h"
#include "test_util.h"

namespace deepsecure {
namespace {

using test::pack_fixed;
using test::random_fixed;

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

// The same MLP with a CORDIC sigmoid: the zoo serves tanh only.
synth::ModelSpec sigmoid_mlp_spec() {
  synth::ModelSpec spec = mlp_spec();
  spec.name = "mlp_sigmoid";
  spec.layers[1] = synth::ActLayer{synth::ActKind::kSigmoidCORDIC};
  return spec;
}

const synth::ModelSpec& zoo_compact(size_t i) {
  static const std::vector<core::ZooEntry> zoo = core::paper_zoo();
  return zoo[i].compact;
}

struct Model {
  synth::ModelSpec spec;
  BitVec weights;
  std::vector<BitVec> samples;
  std::vector<Circuit> reference;

  // The reference chain's answer: layer by layer, each layer's weights
  // in order.
  BitVec plain(const BitVec& data) const {
    BitVec bits = data;
    size_t used = 0;
    for (const Circuit& c : reference) {
      const auto first = weights.begin() + static_cast<ptrdiff_t>(used);
      used += c.evaluator_inputs.size();
      bits = c.eval(bits, BitVec(first, weights.begin() +
                                            static_cast<ptrdiff_t>(used)));
    }
    return bits;
  }
};

Model make_model(const synth::ModelSpec& spec, size_t samples, uint64_t seed) {
  Model m;
  m.spec = spec;
  Rng rng(seed);
  std::vector<Fixed> w;
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i)
    w.push_back(random_fixed(rng, spec.fmt, 0.2));
  // The ring's corners ride along in the first products.
  w[0] = Fixed(-32768, spec.fmt);
  w[1] = Fixed(32767, spec.fmt);
  m.weights = pack_fixed(w);
  for (size_t s = 0; s < samples; ++s) {
    std::vector<Fixed> x;
    for (size_t i = 0; i < spec.input.flat(); ++i)
      x.push_back(random_fixed(rng, spec.fmt, 0.4));
    if (s == 0) x[0] = Fixed(32767, spec.fmt);
    m.samples.push_back(pack_fixed(x));
  }
  m.reference = synth::compile_model_layers(spec);
  return m;
}

const Model& b3pp_model() {
  static const Model m = make_model(zoo_compact(2), 3, 301);
  return m;
}

const Model& mlp_model() {
  static const Model m = make_model(mlp_spec(), 6, 17);
  return m;
}

// On demand, and four pooled answers on a session prefetched three
// deep and then once more: every answer equals the reference chain's.
void expect_served_answers_match(const Model& m) {
  runtime::InferenceServer server(m.spec, m.weights);
  server.start();
  {
    runtime::InferenceClient ondemand("127.0.0.1", server.port(), m.spec);
    for (const BitVec& x : m.samples)
      EXPECT_EQ(ondemand.infer_bits(x), m.plain(x)) << m.spec.name;
    ondemand.close();
  }
  {
    runtime::ClientConfig cfg;
    cfg.pool_target = 3;
    cfg.auto_top_up = false;
    runtime::InferenceClient pooled("127.0.0.1", server.port(), m.spec, cfg);
    pooled.prefetch(3);
    for (size_t s = 0; s < 3; ++s) {
      const BitVec& x = m.samples[s % m.samples.size()];
      EXPECT_EQ(pooled.infer_bits(x), m.plain(x)) << m.spec.name << " " << s;
    }
    pooled.prefetch(1);
    EXPECT_EQ(pooled.infer_bits(m.samples[0]), m.plain(m.samples[0]))
        << m.spec.name;
    EXPECT_EQ(pooled.pooled_inferences(), 4u);
    pooled.close();
  }
  server.stop();
  EXPECT_EQ(server.inferences_pooled(), 4u);
}

TEST(ServedDifferential, MlpOnDemandAndPooledMatchReferenceChain) {
  expect_served_answers_match(mlp_model());
}

TEST(ServedDifferential, SigmoidMlpOnDemandAndPooledMatchReferenceChain) {
  expect_served_answers_match(make_model(sigmoid_mlp_spec(), 6, 19));
}

// A conv front and two hidden FC fronts.
TEST(ServedDifferential, B1ppOnDemandAndPooledMatchReferenceChain) {
  expect_served_answers_match(make_model(zoo_compact(0), 2, 101));
}

TEST(ServedDifferential, B3ppOnDemandAndPooledMatchReferenceChain) {
  expect_served_answers_match(b3pp_model());
}

// Every served zoo chain takes share bits as its only evaluator inputs:
// no weight bit enters a garbled circuit, so nothing garbles a
// multiplier or runs a weight-bit label OT.
TEST(ServedChains, EvaluatorInputsAreShareBitsOnly) {
  std::vector<synth::ModelSpec> specs = {mlp_spec()};
  for (size_t i = 0; i < 4; ++i) specs.push_back(zoo_compact(i));
  for (const synth::ModelSpec& spec : specs) {
    size_t inputs = 0, share_bits = 0;
    for (const synth::ServedStage& stage : synth::compile_served(spec).stages) {
      for (const Circuit& c : stage.chain) inputs += c.evaluator_inputs.size();
      share_bits += stage.front.share_bits();
    }
    EXPECT_EQ(inputs, share_bits) << spec.name;
  }
}

// Wire bytes of one on-demand inference, both directions, as the
// difference of two settled sessions.
uint64_t ondemand_bytes_per_inference(const Model& m) {
  obs::Counter& out = obs::Registry::global().counter("net.tcp.bytes_out");
  // Whole sessions (handshake, OT setup, n inferences, goodbye) on a
  // server stopped before the count is read, so every send is counted;
  // one inference is the difference of two such sessions.
  const auto session_bytes = [&](size_t inferences) {
    const uint64_t before = out.value();
    runtime::InferenceServer server(m.spec, m.weights);
    server.start();
    runtime::InferenceClient client("127.0.0.1", server.port(), m.spec);
    for (size_t i = 0; i < inferences; ++i)
      EXPECT_EQ(client.infer_bits(m.samples[i]), m.plain(m.samples[i]));
    client.close();
    server.stop();
    return out.value() - before;
  };
  const uint64_t one = session_bytes(1);
  return session_bytes(2) - one;
}

// b3_pp, per inference: the two fronts' vector OTs (4,928 and 800
// input-bit OTs at 16 B + 8 B per batch, 81,312 and 6,864 correlations
// at 4 B: 404,104 + 40,264 B), the label OTs of 1,400 + 728 share bits
// (28 per neuron; 32 B each + headers), the client's share-bit labels,
// the two share circuits' (27 ANDs per neuron), tanh's (1,225 ANDs per
// neuron) and argmax's tables, and the frames. CORDIC's generic signed
// divider (5.22 MB), the server as the weight-bit OT receiver with B2A
// before the hidden front (6.55 MB), per-product carries in the share
// circuit (11.89 MB), a garbled hidden FC (15.45 MB) or layer 0 (58 MB)
// fail here.
TEST(ServedBytes, B3ppOnDemandInferencePinned) {
  EXPECT_EQ(ondemand_bytes_per_inference(b3pp_model()), 2600222u);
}

// mlp: fronts of 128 and 96 OTs carrying 768 and 288 correlations
// (5,128 + 2,696 B).
TEST(ServedBytes, MlpOnDemandInferencePinned) {
  EXPECT_EQ(ondemand_bytes_per_inference(mlp_model()), 32782u);
}

}  // namespace
}  // namespace deepsecure
