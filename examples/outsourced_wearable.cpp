// Section 3.3 scenario: a wearable device with no budget for garbling
// delegates the GC protocol to a proxy. The device only (a) samples its
// sensors and (b) XOR-pads the reading — everything else happens between
// the two non-colluding servers.
#include <cstdio>

#include "core/deepsecure.h"
#include "data/synthetic.h"

using namespace deepsecure;

int main() {
  std::printf("DeepSecure secure outsourcing (wearable scenario)\n");
  std::printf("=================================================\n\n");

  // Smart-sensing data (activity recognition), scaled-down benchmark 4.
  data::SyntheticConfig cfg;
  cfg.features = 96;
  cfg.classes = 8;  // activities
  cfg.samples = 480;
  cfg.seed = 13;
  const nn::Dataset ds = data::make_subspace_dataset(cfg);
  const nn::Split split = nn::split_dataset(ds, 0.85);

  Rng rng(17);
  nn::Network model(nn::Shape{1, 1, 96});
  model.dense(20, rng).act(nn::Act::kTanh).dense(8, rng);
  nn::TrainConfig tc;
  tc.epochs = 12;
  nn::train(model, split.train, tc);
  std::printf("activity model test accuracy: %.1f%%\n",
              100.0 * nn::accuracy(model, split.test));
  nn::scale_for_fixed(model, split.train.x);

  SecureInferenceOptions opt;
  opt.seed = Block{77, 78};

  const nn::VecF& reading = split.test.x[0];

  // Direct mode (device garbles itself) vs outsourced mode.
  const auto direct = secure_infer(model, reading, opt);
  const auto outsourced = secure_infer_outsourced(model, reading, opt);

  std::printf("\ndirect mode:     label %zu, device sends %.2f MB\n",
              direct.label,
              static_cast<double>(direct.client_to_server_bytes) / 1e6);
  std::printf("outsourced mode: label %zu\n", outsourced.label);
  std::printf("  device work: generate %zu random bits + XOR (free)\n",
              reading.size() * opt.fmt.total_bits);
  std::printf("  extra proxy<->server cost over direct mode: %lld B\n",
              static_cast<long long>(outsourced.client_to_server_bytes +
                                     outsourced.server_to_client_bytes) -
                  static_cast<long long>(direct.client_to_server_bytes +
                                         direct.server_to_client_bytes));
  std::printf("  proxy<->server traffic: %.2f MB\n",
              static_cast<double>(outsourced.client_to_server_bytes +
                                  outsourced.server_to_client_bytes) /
                  1e6);
  const size_t expect = nn::fixed_predict(model, reading, opt.fmt);
  const bool ok = direct.label == expect && outsourced.label == expect;
  std::printf("\nmodes agree with the plaintext fixed-point model: %s\n",
              ok ? "yes" : "NO (bug!)");
  return ok ? 0 : 1;
}
