#include <gtest/gtest.h>

#include "gc/protocol.h"
#include "net/party.h"
#include "synth/layer_circuits.h"
#include "synth/matvec.h"
#include "test_util.h"

namespace deepsecure {
namespace {

using synth::ActKind;
using synth::ActLayer;
using synth::ArgmaxLayer;
using synth::FcLayer;
using synth::ModelSpec;
using synth::Shape3;
using test::pack_fixed;
using test::random_fixed;

constexpr FixedFormat kFmt = kDefaultFormat;

// Full protocol run (OT included) over a chain of circuits.
BitVec protocol_run(const std::vector<Circuit>& chain, const BitVec& data,
                    const BitVec& weights, SessionTrace* garbler_trace = nullptr) {
  BitVec client_out, server_out;
  run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, Block{2024, 6});
        client_out = session.run_chain(chain, data);
        if (garbler_trace != nullptr) *garbler_trace = session.trace();
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch);
        server_out = session.run_chain(chain, weights);
      });
  EXPECT_EQ(client_out, server_out);
  return client_out;
}

TEST(Protocol, SingleCircuitMatchesPlaintext) {
  const Circuit c = synth::make_matvec_circuit(4, 2, kFmt);
  Rng rng(1);
  std::vector<Fixed> x, w;
  for (int i = 0; i < 4; ++i) x.push_back(random_fixed(rng, kFmt, 0.1));
  for (int i = 0; i < 8; ++i) w.push_back(random_fixed(rng, kFmt, 0.1));
  const BitVec data = pack_fixed(x), weights = pack_fixed(w);

  const BitVec expect = c.eval(data, weights);
  const BitVec got = protocol_run({c}, data, weights);
  EXPECT_EQ(got, expect);
}

TEST(Protocol, ChainedLayersCarryLabels) {
  ModelSpec spec;
  spec.name = "chain";
  spec.input = Shape3{1, 1, 6};
  spec.layers.push_back(FcLayer{5, {}, true});
  spec.layers.push_back(ActLayer{ActKind::kReLU});
  spec.layers.push_back(FcLayer{3, {}, true});
  spec.layers.push_back(ArgmaxLayer{});
  const auto layers = synth::compile_model_layers(spec);
  const Circuit mono = synth::compile_model(spec);

  Rng rng(2);
  std::vector<Fixed> x, w;
  for (size_t i = 0; i < 6; ++i) x.push_back(random_fixed(rng, kFmt, 0.2));
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i)
    w.push_back(random_fixed(rng, kFmt, 0.2));
  const BitVec data = pack_fixed(x), weights = pack_fixed(w);

  const BitVec expect = mono.eval(data, weights);
  SessionTrace trace;
  const BitVec got = protocol_run(layers, data, weights, &trace);
  EXPECT_EQ(got, expect);
  // One phase per layer; OT setup tracked separately.
  EXPECT_EQ(trace.phases.size(), layers.size());
  EXPECT_GT(trace.setup_s, 0.0);
  EXPECT_GT(trace.sum_garble(), 0.0);
}

TEST(Protocol, TanhNetworkEndToEnd) {
  ModelSpec spec;
  spec.name = "tanh_net";
  spec.input = Shape3{1, 1, 4};
  spec.layers.push_back(FcLayer{3, {}, true});
  spec.layers.push_back(ActLayer{ActKind::kTanhSeg});
  spec.layers.push_back(FcLayer{2, {}, true});
  spec.layers.push_back(ArgmaxLayer{});
  const Circuit mono = synth::compile_model(spec);

  Rng rng(3);
  std::vector<Fixed> x, w;
  for (size_t i = 0; i < 4; ++i) x.push_back(random_fixed(rng, kFmt, 0.3));
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i)
    w.push_back(random_fixed(rng, kFmt, 0.3));
  const BitVec data = pack_fixed(x), weights = pack_fixed(w);

  const BitVec got = protocol_run({mono}, data, weights);
  EXPECT_EQ(got, mono.eval(data, weights));
}

TEST(Protocol, SequentialMacMatchesPlaintext) {
  const Circuit step = synth::make_mac_step_circuit(kFmt);
  Rng rng(4);
  const size_t cycles = 7;
  std::vector<Fixed> x, w;
  for (size_t i = 0; i < cycles; ++i) {
    x.push_back(random_fixed(rng, kFmt, 0.15));
    w.push_back(random_fixed(rng, kFmt, 0.15));
  }
  const BitVec data = pack_fixed(x), weights = pack_fixed(w);
  const BitVec expect = eval_sequential(step, cycles, data, weights);

  BitVec client_out, server_out;
  run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, Block{5, 5});
        client_out = session.run_sequential(step, cycles, data);
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch);
        server_out = session.run_sequential(step, cycles, weights);
      });
  EXPECT_EQ(client_out, expect);
  EXPECT_EQ(server_out, expect);
}

// Offline/online split at the session level: garble_offline + material
// push + its label OTs, then an online run that only moves active
// data labels — must agree with plaintext and with the on-demand path.
TEST(Protocol, OfflineOnlineSplitMatchesOnDemand) {
  ModelSpec spec;
  spec.name = "offline_chain";
  spec.input = Shape3{1, 1, 6};
  spec.layers.push_back(FcLayer{5, {}, true});
  spec.layers.push_back(ActLayer{ActKind::kReLU});
  spec.layers.push_back(FcLayer{3, {}, true});
  spec.layers.push_back(ArgmaxLayer{});
  const auto chain = synth::compile_model_layers(spec);

  Rng rng(11);
  std::vector<Fixed> x, w;
  for (size_t i = 0; i < 6; ++i) x.push_back(random_fixed(rng, kFmt, 0.2));
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i)
    w.push_back(random_fixed(rng, kFmt, 0.2));
  const BitVec data = pack_fixed(x), weights = pack_fixed(w);
  const BitVec expect = synth::compile_model(spec).eval(data, weights);

  BitVec online_g, online_e, ondemand_g;
  run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, Block{2026, 7});
        // Offline: one artifact, its OTs, and its label resolution.
        GarbledMaterial mat = garble_offline(chain, Block{4242, 99});
        // The artifact stamps the walked view.
        EXPECT_EQ(mat.fingerprint, chain_fingerprint(chain));
        EXPECT_EQ(mat.decode_bits.size(), chain.back().outputs.size());
        // Only the tables move out; the labels stay for the OTs below.
        send_material(ch, std::move(mat));
        session.send_fixed_labels(mat.eval_zeros, mat.delta);
        // Online: active data labels out, result bits back.
        session.send_online_labels(mat.delta, mat.data_zeros, data);
        online_g = session.recv_result();
        // The same session still supports on-demand runs afterwards.
        ondemand_g = session.run_chain(chain, data);
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch);
        EvalMaterial mat = recv_material(ch);
        mat.eval_labels = session.recv_fixed_labels(weights);
        online_e = session.open_online(session.evaluate_online(chain, mat),
                                       mat.decode_bits);
        session.run_chain(chain, weights);
      });

  EXPECT_EQ(online_g, expect);
  EXPECT_EQ(online_e, expect);
  EXPECT_EQ(ondemand_g, expect);
}

// The on-demand wire cost of one inference, pinned exactly: tables
// (constant labels included), 32 B per weight bit of one-block
// correlated OT (16 B of u columns, rounded up per batch to whole bytes
// per column, plus the 8-byte batch size; 16 B of c_j back), the
// client's active data labels, the returned output labels and the
// shared result bits. The base-OT setup is paid by the first run only.
TEST(Protocol, OnDemandBytesPerInferencePinned) {
  ModelSpec spec;
  spec.name = "bytes_chain";
  spec.input = Shape3{1, 1, 6};
  spec.layers.push_back(FcLayer{5, {}, true});
  spec.layers.push_back(ActLayer{ActKind::kReLU});
  spec.layers.push_back(FcLayer{3, {}, true});
  const auto chain = synth::compile_model_layers(spec);

  Rng rng(12);
  std::vector<Fixed> x, w;
  for (size_t i = 0; i < 6; ++i) x.push_back(random_fixed(rng, kFmt, 0.2));
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i)
    w.push_back(random_fixed(rng, kFmt, 0.2));
  const BitVec data = pack_fixed(x), weights = pack_fixed(w);

  uint64_t g_sent = 0, e_sent = 0;
  run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, Block{2027, 8});
        session.run_chain(chain, data);  // pays the base-OT setup
        const uint64_t b0 = ch.bytes_sent();
        session.run_chain(chain, data);
        g_sent = ch.bytes_sent() - b0;
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch);
        session.run_chain(chain, weights);
        const uint64_t b0 = ch.bytes_sent();
        session.run_chain(chain, weights);
        e_sent = ch.bytes_sent() - b0;
      });

  uint64_t ot_u = 0, ot_c = 0, weight_bits = 0;
  for (const Circuit& c : chain) {
    const uint64_t n = c.evaluator_inputs.size();
    if (n == 0) continue;
    weight_bits += n;
    ot_u += 8 + kOtExtKappa * ((n + 7) / 8);
    ot_c += 16 * n;
  }
  ASSERT_EQ(weight_bits, weights.size());
  const uint64_t outs = chain.back().outputs.size();
  const uint64_t data_labels = 16 * chain.front().garbler_inputs.size();
  EXPECT_EQ(g_sent, material_stream_bytes(chain) + ot_c + data_labels +
                        8 + (outs + 7) / 8);
  EXPECT_EQ(e_sent, ot_u + 16 * outs);
  // One-block COT: 32 B per weight bit, give or take the per-batch
  // rounding and headers (a two-block OT would ship 48).
  const double per_ot = static_cast<double>(ot_u + ot_c) /
                        static_cast<double>(weight_bits);
  EXPECT_LT(per_ot, 32.5);
}

// A consumed artifact self-checks: evaluate_material validates label
// counts and rejects surplus table bytes.
TEST(Protocol, EvaluateMaterialValidatesArtifact) {
  ModelSpec spec;
  spec.name = "tiny";
  spec.input = Shape3{1, 1, 2};
  spec.layers.push_back(FcLayer{2, {}, true});
  const auto chain = synth::compile_model_layers(spec);

  GarbledMaterial mat = garble_offline(chain, Block{1, 2});
  EvalMaterial em;
  em.decode_bits = mat.decode_bits;
  em.tables = mat.tables;
  em.eval_labels = Labels(mat.ot_count() + 1, kZeroBlock);  // wrong count
  const Labels g(chain.front().garbler_inputs.size(), kZeroBlock);
  EXPECT_THROW(evaluate_material(chain, em, g), std::invalid_argument);

  em.eval_labels.pop_back();
  em.tables.resize(em.tables.size() + 16);  // trailing garbage
  EXPECT_THROW(evaluate_material(chain, em, g), std::runtime_error);
}

TEST(Protocol, CommunicationDominatedByTables) {
  const Circuit c = synth::make_matvec_circuit(8, 4, kFmt);
  Rng rng(6);
  std::vector<Fixed> x, w;
  for (int i = 0; i < 8; ++i) x.push_back(random_fixed(rng, kFmt, 0.1));
  for (int i = 0; i < 32; ++i) w.push_back(random_fixed(rng, kFmt, 0.1));

  uint64_t a_to_b = 0;
  const auto stats = run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, Block{7, 7});
        session.run_chain({c}, pack_fixed(x));
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch);
        session.run_chain({c}, pack_fixed(w));
      });
  a_to_b = stats.a_to_b_bytes;
  // Garbled tables alone are 32 bytes per AND gate.
  EXPECT_GT(a_to_b, c.stats().table_bytes());
  EXPECT_LT(a_to_b, c.stats().table_bytes() * 3 / 2);
}

}  // namespace
}  // namespace deepsecure
