// Integration tests across the whole stack: trained models through the
// real two-party protocol, including a scaled-down version of each paper
// benchmark family (CNN, Sigmoid-DNN, Tanh-DNN) and the full
// pre-processing-then-secure-inference pipeline.
#include <gtest/gtest.h>

#include "core/benchmark_zoo.h"
#include "core/deepsecure.h"
#include "net/party.h"
#include "data/synthetic.h"

namespace deepsecure {
namespace {

TEST(EndToEnd, ScaledCnnBenchmark1Family) {
  // 12x12 input, conv 3x3 stride 2, ReLU, FC, ReLU, FC — benchmark 1's
  // shape at test scale.
  data::SyntheticConfig cfg;
  cfg.features = 144;
  cfg.classes = 4;
  cfg.samples = 240;
  cfg.seed = 61;
  nn::Dataset ds = data::make_subspace_dataset(cfg);

  Rng rng(1);
  nn::Network net(nn::Shape{12, 12, 1});
  net.conv(3, 2, 3, rng)
      .act(nn::Act::kReLU)
      .dense(20, rng)
      .act(nn::Act::kReLU)
      .dense(4, rng);
  nn::TrainConfig tc;
  tc.epochs = 8;
  nn::train(net, ds, tc);

  SecureInferenceOptions opt;
  opt.seed = Block{21, 22};
  for (int i = 0; i < 3; ++i) {
    const auto res = secure_infer(net, ds.x[i], opt);
    EXPECT_EQ(res.label, nn::fixed_predict(net, ds.x[i], opt.fmt)) << i;
  }
}

TEST(EndToEnd, SigmoidDnnBenchmark2Family) {
  data::SyntheticConfig cfg;
  cfg.features = 40;
  cfg.classes = 5;
  cfg.samples = 250;
  cfg.seed = 62;
  nn::Dataset ds = data::make_subspace_dataset(cfg);

  Rng rng(2);
  nn::Network net(nn::Shape{1, 1, 40});
  net.dense(16, rng)
      .act(nn::Act::kSigmoid)
      .dense(8, rng)
      .act(nn::Act::kSigmoid)
      .dense(5, rng);
  nn::TrainConfig tc;
  tc.epochs = 12;
  nn::train(net, ds, tc);

  SecureInferenceOptions opt;
  opt.seed = Block{23, 24};
  int agree = 0;
  for (int i = 0; i < 5; ++i) {
    const auto res = secure_infer(net, ds.x[i], opt);
    agree += res.label == net.predict(ds.x[i]) ? 1 : 0;
  }
  EXPECT_GE(agree, 4);  // CORDIC sigmoid ~1 LSB from float
}

TEST(EndToEnd, TanhDnnBenchmark3FamilyWithSegVariant) {
  data::SyntheticConfig cfg;
  cfg.features = 60;
  cfg.classes = 6;
  cfg.samples = 300;
  cfg.seed = 63;
  nn::Dataset ds = data::make_subspace_dataset(cfg);

  Rng rng(3);
  nn::Network net(nn::Shape{1, 1, 60});
  net.dense(12, rng).act(nn::Act::kTanh).dense(6, rng);
  nn::TrainConfig tc;
  tc.epochs = 12;
  nn::train(net, ds, tc);

  SecureInferenceOptions opt;
  opt.seed = Block{25, 26};
  opt.tanh_variant = synth::ActKind::kTanhSeg;
  int agree = 0;
  for (int i = 0; i < 5; ++i) {
    const auto res = secure_infer(net, ds.x[i], opt);
    agree += res.label == net.predict(ds.x[i]) ? 1 : 0;
  }
  EXPECT_GE(agree, 4);
}

TEST(EndToEnd, FullPipelineSecureInferenceOnCondensedModel) {
  data::SyntheticConfig cfg;
  cfg.features = 36;
  cfg.classes = 3;
  cfg.samples = 240;
  cfg.subspace_rank = 4;
  cfg.seed = 64;
  const nn::Dataset all = data::make_subspace_dataset(cfg);
  const nn::Split split = nn::split_dataset(all, 0.8);

  PreprocessConfig pc;
  pc.hidden = 12;
  pc.projection.gamma = 0.2;
  pc.prune.prune_fraction = 0.5;
  pc.prune.rounds = 1;
  pc.prune.retrain_epochs = 5;
  pc.retrain.epochs = 10;
  PreprocessOutcome out =
      preprocess_pipeline(split.train, split.test, nn::Act::kReLU, pc);

  // Client: raw sample -> public projection -> GC inference on the
  // condensed model (Algorithm 2 + Figure 2 online path).
  SecureInferenceOptions opt;
  opt.seed = Block{31, 32};
  int correct_secure = 0, correct_float = 0;
  const int n = 5;
  for (int i = 0; i < n; ++i) {
    const nn::VecF projected = out.projection.project(split.test.x[i]);
    const auto res = secure_infer(out.model, projected, opt);
    correct_secure += res.label == split.test.y[i] ? 1 : 0;
    correct_float += out.model.predict(projected) == split.test.y[i] ? 1 : 0;
  }
  // Secure path classifies as well as the plaintext condensed model.
  EXPECT_GE(correct_secure, correct_float - 1);
}

TEST(EndToEnd, SequentialFoldedMacPipelineLong) {
  // Section 3.5: run a folded MAC for many cycles through the real
  // protocol and verify against plaintext fixed-point.
  const Circuit step = synth::make_mac_step_circuit(kDefaultFormat);
  const size_t cycles = 64;
  Rng rng(65);
  BitVec data, weights;
  int64_t sum = 0;  // full products, truncated once
  std::vector<Fixed> xs, ws;
  for (size_t i = 0; i < cycles; ++i) {
    const Fixed x = Fixed::from_double(rng.next_uniform(-0.3, 0.3));
    const Fixed w = Fixed::from_double(rng.next_uniform(-0.3, 0.3));
    xs.push_back(x);
    ws.push_back(w);
    sum += x.raw() * w.raw();
    const BitVec xb = x.to_bits(), wb = w.to_bits();
    data.insert(data.end(), xb.begin(), xb.end());
    weights.insert(weights.end(), wb.begin(), wb.end());
  }

  BitVec got;
  run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, Block{71, 72});
        got = session.run_sequential(step, cycles, data);
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch);
        session.run_sequential(step, cycles, weights);
      });
  EXPECT_EQ(Fixed::from_bits(got).raw(), Fixed::from_product_sum(sum).raw());
}

TEST(EndToEnd, ZooSmokeBenchmark3GateCounts) {
  // The real benchmark 3 spec compiles (it is the smallest) and its
  // analytic and compiled counts agree.
  const auto zoo = core::paper_zoo();
  const auto& b3 = zoo[2];
  const auto analytic = synth::count_model(b3.base);
  const Circuit compiled = synth::compile_model(b3.base);
  const auto exact = synth::count_circuit(compiled);
  const double ratio = static_cast<double>(analytic.num_non_xor) /
                       static_cast<double>(exact.num_non_xor);
  EXPECT_GT(ratio, 0.95);
  EXPECT_LT(ratio, 1.05);
}

}  // namespace
}  // namespace deepsecure
