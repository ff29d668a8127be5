// Quickstart: train a tiny model on synthetic data, then classify one
// private sample with the full DeepSecure GC protocol (client = garbler
// owning the sample, server = evaluator owning the weights).
//
//   $ ./quickstart
#include <cstdio>

#include "core/deepsecure.h"
#include "data/synthetic.h"

using namespace deepsecure;

int main() {
  std::printf("DeepSecure quickstart\n=====================\n\n");

  // --- Server side: train a model on (synthetic) private data. --------
  data::SyntheticConfig cfg;
  cfg.features = 32;
  cfg.classes = 4;
  cfg.samples = 400;
  const nn::Dataset ds = data::make_subspace_dataset(cfg);
  const nn::Split split = nn::split_dataset(ds, 0.8);

  Rng rng(1);
  nn::Network model(nn::Shape{1, 1, 32});
  model.dense(24, rng).act(nn::Act::kTanh).dense(4, rng);
  nn::TrainConfig tc;
  tc.epochs = 12;
  nn::train(model, split.train, tc);
  std::printf("server: trained model, test accuracy %.1f%%\n",
              100.0 * nn::accuracy(model, split.test));
  nn::scale_for_fixed(model, split.train.x);  // fit the Q(16,12) datapath

  // --- Client side: classify a private sample via Yao's GC. -----------
  const nn::VecF& sample = split.test.x[0];
  SecureInferenceOptions opt;  // CORDIC Tanh, Q(16,12)
  const SecureInferenceResult res = secure_infer(model, sample, opt);

  std::printf("\nsecure inference:\n");
  std::printf("  predicted label     : %zu (true: %zu)\n", res.label,
              split.test.y[0]);
  std::printf("  non-XOR gates       : %llu\n",
              static_cast<unsigned long long>(res.gates.num_non_xor));
  std::printf("  XOR gates (free)    : %llu\n",
              static_cast<unsigned long long>(res.gates.num_xor));
  std::printf("  client->server bytes: %.2f MB\n",
              static_cast<double>(res.client_to_server_bytes) / 1e6);
  std::printf("  server->client bytes: %.2f KB\n",
              static_cast<double>(res.server_to_client_bytes) / 1e3);
  std::printf("  wall time           : %.3f s\n", res.wall_seconds);

  // Cross-check against the plaintext fixed-point model.
  const size_t expect = nn::fixed_predict(model, sample, opt.fmt);
  std::printf("  plaintext fixed-point model agrees: %s\n",
              res.label == expect ? "yes" : "NO (bug!)");
  return res.label == expect ? 0 : 1;
}
