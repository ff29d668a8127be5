#include <gtest/gtest.h>

#include "core/deepsecure.h"
#include "data/synthetic.h"
#include "synth/served.h"
#include "test_util.h"

namespace deepsecure {
namespace {

nn::Network trained_toy_net(const nn::Dataset& ds, nn::Act act,
                            size_t hidden, uint64_t seed) {
  Rng rng(seed);
  nn::Network net(nn::Shape{1, 1, ds.x[0].size()});
  net.dense(hidden, rng).act(act).dense(ds.num_classes, rng);
  nn::TrainConfig tc;
  tc.epochs = 10;
  nn::train(net, ds, tc);
  return net;
}

nn::Dataset toy_data(uint64_t seed) {
  data::SyntheticConfig cfg;
  cfg.features = 10;
  cfg.classes = 3;
  cfg.samples = 180;
  cfg.seed = seed;
  return data::make_subspace_dataset(cfg);
}

TEST(ModelSpec, MirrorsNetworkTopology) {
  const nn::Dataset ds = toy_data(41);
  nn::Network net = trained_toy_net(ds, nn::Act::kTanh, 6, 1);
  SecureInferenceOptions opt;
  opt.tanh_variant = synth::ActKind::kTanhSeg;
  const synth::ModelSpec spec = model_spec_from_network(net, opt);

  ASSERT_EQ(spec.layers.size(), 4u);  // fc, act, fc, argmax
  EXPECT_TRUE(std::holds_alternative<synth::FcLayer>(spec.layers[0]));
  const auto& act = std::get<synth::ActLayer>(spec.layers[1]);
  EXPECT_EQ(act.kind, synth::ActKind::kTanhSeg);
  EXPECT_TRUE(std::holds_alternative<synth::ArgmaxLayer>(spec.layers.back()));
  EXPECT_EQ(synth::model_weight_count(spec), net.param_count());
}

TEST(SecureInfer, MatchesFixedPointPrediction) {
  const nn::Dataset ds = toy_data(42);
  nn::Network net = trained_toy_net(ds, nn::Act::kReLU, 6, 2);

  SecureInferenceOptions opt;
  opt.seed = Block{99, 99};
  int agree = 0;
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    const SecureInferenceResult res = secure_infer(net, ds.x[i], opt);
    const size_t expect = nn::fixed_predict(net, ds.x[i], opt.fmt);
    EXPECT_EQ(res.label, expect) << "sample " << i;
    agree += res.label == expect;
    EXPECT_GT(res.client_to_server_bytes, res.gates.comm_bytes());
    EXPECT_GT(res.gates.num_non_xor, 0u);
  }
  EXPECT_EQ(agree, n);
}

TEST(SecureInfer, TanhCordicPathAgreesWithFloatModel) {
  const nn::Dataset ds = toy_data(43);
  nn::Network net = trained_toy_net(ds, nn::Act::kTanh, 5, 3);

  SecureInferenceOptions opt;
  opt.seed = Block{7, 8};
  // The CORDIC tanh differs from float tanh by <= ~2 LSB; class
  // decisions should still agree with the float model on all but
  // borderline samples. Require strong majority agreement.
  int agree = 0;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    const SecureInferenceResult res = secure_infer(net, ds.x[i], opt);
    agree += res.label == net.predict(ds.x[i]);
  }
  EXPECT_GE(agree, n - 1);
}

// Correlations of every served stage's front: one per input bit of
// each kept product.
size_t front_correlations(const nn::Network& net,
                          const SecureInferenceOptions& opt) {
  size_t words = 0;
  for (const synth::ServedStage& stage :
       synth::compile_served(model_spec_from_network(net, opt)).stages)
    words += stage.front.correlations();
  return words;
}

// Pruning removes products, whose correlations the server sends in the
// fronts; the fronts' OTs (one per input bit) and the share circuit
// (one adder per neuron) do not depend on them. So an 80% prune more
// than halves the correlations and shrinks the server's traffic, and
// the client's does not grow.
TEST(SecureInfer, PrunedModelRunsAndShrinksTraffic) {
  const nn::Dataset ds = toy_data(45);
  nn::Network net = trained_toy_net(ds, nn::Act::kReLU, 8, 5);
  SecureInferenceOptions opt;
  opt.seed = Block{3, 3};
  const auto before = secure_infer(net, ds.x[0], opt);
  const size_t words_before = front_correlations(net, opt);

  preprocess::PruneConfig pc;
  pc.prune_fraction = 0.8;
  pc.rounds = 2;
  pc.retrain_epochs = 4;
  preprocess::prune_and_retrain(net, ds, pc);
  const auto after = secure_infer(net, ds.x[0], opt);

  EXPECT_LT(front_correlations(net, opt), words_before / 2);
  EXPECT_LT(after.server_to_client_bytes, before.server_to_client_bytes);
  EXPECT_LE(after.client_to_server_bytes, before.client_to_server_bytes);
  EXPECT_EQ(after.label, nn::fixed_predict(net, ds.x[0], opt.fmt));
}

// nn::fixed_forward and the reference chain (Circuit::eval over
// compile_model_layers) agree word for word on the logits of a conv +
// ReLU + mean-pool + dense net, not only on its label: both sum full
// products and truncate once per neuron.
TEST(FixedForward, LogitsMatchReferenceChainWordForWord) {
  Rng rng(21);
  nn::Network net(nn::Shape{6, 6, 1});
  net.conv(3, 1, 2, rng)
      .act(nn::Act::kReLU)
      .pool(nn::Pool::kMean, 2, 2)
      .dense(5, rng)
      .act(nn::Act::kReLU)
      .dense(3, rng);
  SecureInferenceOptions opt;
  const synth::ModelSpec spec = model_spec_from_network(net, opt);
  const std::vector<Circuit> chain = synth::compile_model_layers(spec);
  const BitVec w = weight_bits(net, opt.fmt);
  for (int trial = 0; trial < 5; ++trial) {
    nn::VecF sample(36);
    for (float& v : sample)
      v = static_cast<float>(rng.next_uniform(-1.0, 1.0));
    BitVec x = sample_bits(sample, opt.fmt);
    size_t at = 0;
    for (size_t l = 0; l + 1 < chain.size(); ++l) {  // all but argmax
      const size_t nw = chain[l].evaluator_inputs.size();
      x = chain[l].eval(x, BitVec(w.begin() + static_cast<ptrdiff_t>(at),
                                  w.begin() + static_cast<ptrdiff_t>(at + nw)));
      at += nw;
    }
    const std::vector<Fixed> got = test::unpack_fixed(x, opt.fmt);
    const std::vector<Fixed> want = nn::fixed_forward(net, sample, opt.fmt);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(got[i].raw(), want[i].raw())
          << "trial " << trial << " logit " << i;
  }
}

TEST(SecureInferOutsourced, AgreesWithDirectMode) {
  const nn::Dataset ds = toy_data(46);
  nn::Network net = trained_toy_net(ds, nn::Act::kReLU, 5, 6);
  SecureInferenceOptions opt;
  opt.seed = Block{11, 12};
  for (int i = 0; i < 3; ++i) {
    const auto direct = secure_infer(net, ds.x[i], opt);
    const auto outsourced = secure_infer_outsourced(net, ds.x[i], opt);
    const size_t expect = nn::fixed_predict(net, ds.x[i], opt.fmt);
    EXPECT_EQ(direct.label, expect) << i;
    EXPECT_EQ(outsourced.label, expect) << i;
  }
}

// The library runs the runtime's served stages: on a fixed net its
// traffic is exact (sizes do not depend on the sample, the weights or
// the seed) and its gate count is the served chains'. A return to
// garbling the reference chain, multipliers included, moves all three.
TEST(SecureInfer, ServedStagesPinBytesAndGates) {
  Rng rng(7);
  nn::Network net(nn::Shape{1, 1, 6});
  net.dense(4, rng).act(nn::Act::kReLU).dense(3, rng);
  SecureInferenceOptions opt;
  opt.seed = Block{5, 6};
  const nn::VecF sample{0.5f, -0.25f, 0.125f, 1.0f, -0.75f, 0.0f};

  const SecureInferenceResult res = secure_infer(net, sample, opt);
  EXPECT_EQ(res.label, nn::fixed_predict(net, sample, opt.fmt));
  // One session: its OT setup (base OTs, 128 bootstrap OTs), the two
  // fronts (96 and 64 OTs; 24 and 12 products), the stages' label OTs,
  // labels and tables, and the opening.
  EXPECT_EQ(res.client_to_server_bytes, 29161u);
  EXPECT_EQ(res.server_to_client_bytes, 11768u);
  // Outsourced: the same stages on XOR input shares, byte for byte.
  const SecureInferenceResult out = secure_infer_outsourced(net, sample, opt);
  EXPECT_EQ(out.label, res.label);
  EXPECT_EQ(out.client_to_server_bytes, 29161u);
  EXPECT_EQ(out.server_to_client_bytes, 11768u);

  synth::GateCount served;
  for (const synth::ServedStage& stage :
       synth::compile_served(model_spec_from_network(net, opt)).stages)
    for (const Circuit& c : stage.chain) served += synth::count_circuit(c);
  EXPECT_EQ(res.gates.num_xor, served.num_xor);
  EXPECT_EQ(res.gates.num_non_xor, served.num_non_xor);
  EXPECT_EQ(res.gates.num_one_row, served.num_one_row);
}

// The outsourced mode runs layer 0's front on the proxy's and the
// server's XOR shares where direct mode runs it on the data and zeros:
// the same OTs and correlations, so the same bytes each way, on every
// sample.
TEST(SecureInferOutsourced, SameWireBytesAsDirect) {
  Rng rng(7);
  nn::Network net(nn::Shape{1, 1, 6});
  net.dense(4, rng).act(nn::Act::kReLU).dense(3, rng);
  SecureInferenceOptions opt;
  opt.seed = Block{5, 6};
  for (int i = 0; i < 3; ++i) {
    nn::VecF sample(6);
    for (float& v : sample)
      v = static_cast<float>(rng.next_uniform(-1.0, 1.0));
    const SecureInferenceResult direct = secure_infer(net, sample, opt);
    const SecureInferenceResult out = secure_infer_outsourced(net, sample, opt);
    EXPECT_EQ(out.label, direct.label) << i;
    EXPECT_EQ(out.client_to_server_bytes, direct.client_to_server_bytes) << i;
    EXPECT_EQ(out.server_to_client_bytes, direct.server_to_client_bytes) << i;
  }
}

// Both modes serve only networks whose first layer is FC or conv
// (synth::compile_served).
TEST(SecureInfer, RefusesANetworkThatStartsWithAnActivation) {
  Rng rng(8);
  nn::Network net(nn::Shape{1, 1, 4});
  net.act(nn::Act::kReLU).dense(2, rng);
  const nn::VecF sample(4, 0.5f);
  EXPECT_THROW(secure_infer(net, sample), std::invalid_argument);
  EXPECT_THROW(secure_infer_outsourced(net, sample), std::invalid_argument);
}

TEST(PreprocessPipeline, ImprovesCostKeepsAccuracy) {
  data::SyntheticConfig cfg;
  cfg.features = 48;
  cfg.classes = 3;
  cfg.samples = 300;
  cfg.subspace_rank = 4;
  cfg.noise = 0.01;
  cfg.seed = 47;
  const nn::Dataset all = data::make_subspace_dataset(cfg);
  const nn::Split split = nn::split_dataset(all, 0.8);

  PreprocessConfig pc;
  pc.hidden = 16;
  pc.projection.gamma = 0.2;
  pc.prune.prune_fraction = 0.6;
  pc.prune.rounds = 2;
  pc.prune.retrain_epochs = 5;
  pc.retrain.epochs = 12;

  const PreprocessOutcome out =
      preprocess_pipeline(split.train, split.test, nn::Act::kReLU, pc);

  EXPECT_GT(out.baseline_accuracy, 0.8f);
  EXPECT_GE(out.condensed_accuracy, out.baseline_accuracy - 0.1f);
  EXPECT_LT(out.cost_after.comm_bytes, out.cost_before.comm_bytes);
  EXPECT_LT(out.projection.embed_dim, 48u);
  EXPECT_GT(out.prune.overall_sparsity, 0.4);
}

}  // namespace
}  // namespace deepsecure
