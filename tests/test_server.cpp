// Multi-session inference server: concurrent TCP sessions against one
// loaded model, end-to-end secure inference over a real loopback socket
// (the satellite requirement: not just MemChannel), and handshake
// rejection paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/schedule.h"
#include "core/deepsecure.h"
#include "net/tcp_channel.h"
#include "nn/network.h"
#include "runtime/client.h"
#include "runtime/frame.h"
#include "runtime/front.h"
#include "runtime/server.h"
#include "support/rng.h"
#include "test_util.h"

namespace deepsecure {
namespace {

using test::pack_fixed;
using test::random_fixed;

// Sanitizer instrumentation slows every step 5-20x; absolute timeouts
// that race real work (like the idle reaper vs a live handshake) need
// headroom or they evict sessions that are merely slow, not stalled.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr uint64_t kIdleTimeoutMs = 1500;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr uint64_t kIdleTimeoutMs = 1500;
#else
constexpr uint64_t kIdleTimeoutMs = 150;
#endif
#else
constexpr uint64_t kIdleTimeoutMs = 150;
#endif

synth::ModelSpec small_spec() {
  synth::ModelSpec spec;
  spec.name = "server_test_mlp";
  spec.input = synth::Shape3{1, 1, 5};
  spec.layers.push_back(synth::FcLayer{4, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  return spec;
}

BitVec random_weights(const synth::ModelSpec& spec, Rng& rng) {
  std::vector<Fixed> w;
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i)
    w.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  return pack_fixed(w);
}

// Plaintext reference label for a sample against the spec + weights.
size_t plaintext_label(const synth::ModelSpec& spec, const BitVec& weights,
                       const BitVec& data) {
  const Circuit mono = synth::compile_model(spec);
  return from_bits(mono.eval(data, weights));
}

TEST(InferenceServerTest, EndToEndSecureInferOverTcpLoopback) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(17);
  const BitVec weights = random_weights(spec, rng);

  runtime::InferenceServer server(spec, weights);
  server.start();

  std::vector<Fixed> x;
  for (size_t i = 0; i < 5; ++i)
    x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  const BitVec data = pack_fixed(x);

  runtime::ClientConfig ccfg;
  ccfg.seed = Block{2024, 610};
  runtime::InferenceClient client("127.0.0.1", server.port(), spec, ccfg);
  const BitVec out = client.infer_bits(data);
  EXPECT_EQ(from_bits(out), plaintext_label(spec, weights, data));
  client.close();
  server.stop();
  EXPECT_EQ(server.inferences_served(), 1u);
  EXPECT_EQ(server.sessions_rejected(), 0u);
}

TEST(InferenceServerTest, StatsJsonExplainsServedSession) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(19);
  const BitVec weights = random_weights(spec, rng);

  runtime::InferenceServer server(spec, weights);
  server.start();

  std::vector<Fixed> x;
  for (size_t i = 0; i < 5; ++i)
    x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  const BitVec data = pack_fixed(x);

  runtime::ClientConfig ccfg;
  ccfg.seed = Block{2025, 808};
  runtime::InferenceClient client("127.0.0.1", server.port(), spec, ccfg);
  (void)client.infer_bits(data);
  client.close();
  server.stop();

  // Counter accessors and the registry must agree: the accessors are
  // thin reads of the same instruments stats_json() serializes.
  EXPECT_EQ(server.inferences_served(), 1u);
  EXPECT_EQ(server.metrics().snapshot().counter_value(
                "server.inferences_served"),
            1u);

  const std::string js = server.stats_json();
  for (const char* key :
       {"\"accounting\"", "\"accounted_fraction\"", "\"phase_total_s\"",
        "\"session_wall_s\"", "\"metrics\"",
        "\"server.sessions_accepted\"", "\"phase.handshake\"",
        "\"phase.session_wall\"", "\"subphase.eval\"", "\"hash_backend\"",
        "\"cpu_features\"", "\"front\"", "\"buckets\":["})
    EXPECT_NE(js.find(key), std::string::npos) << key << " missing:\n" << js;

  // After stop() every teardown has observed session_wall, so the
  // accounted phases must explain a sane share of the wall time.
  const obs::Snapshot snap = server.metrics().snapshot();
  const obs::Snapshot::Hist* wall = snap.find_hist("phase.session_wall");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 1u);
  EXPECT_GT(wall->sum, 0u);
}

// The integer after `"key":` in `js`, or -1 when absent.
long long json_int(const std::string& js, const std::string& key) {
  const size_t at = js.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  const char* begin = js.c_str() + at + key.size() + 3;
  char* end = nullptr;
  const long long v = std::strtoll(begin, &end, 10);
  return end == begin ? -1 : v;
}

// The "chain" block sizes the walked served chain the server holds.
TEST(InferenceServerTest, StatsJsonSizesTheWalkedChain) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(23);
  runtime::InferenceServer server(spec, random_weights(spec, rng));
  const std::string js = server.stats_json();
  const size_t at = js.find("\"chain\":{");
  ASSERT_NE(at, std::string::npos) << js;
  const size_t close = js.find('}', at);
  ASSERT_NE(close, std::string::npos) << js;
  const std::string block = js.substr(at, close - at + 1);

  std::vector<Circuit> walked;
  for (synth::ServedStage& stage : synth::compile_served(spec).stages)
    for (Circuit& c : walk_chain(std::move(stage.chain)))
      walked.push_back(std::move(c));
  long long gates = 0, and_gates = 0, slots = 0;
  for (const Circuit& c : walked) {
    gates += static_cast<long long>(c.gates.size());
    and_gates += static_cast<long long>(c.stats().num_and);
    slots += c.num_wires;
  }
  EXPECT_EQ(json_int(block, "circuits"),
            static_cast<long long>(walked.size()));
  EXPECT_EQ(json_int(block, "gates"), gates);
  EXPECT_EQ(json_int(block, "and_gates"), and_gates);
  EXPECT_EQ(json_int(block, "label_slots"), slots);
  EXPECT_GE(json_int(block, "netlist_bytes"),
            gates * static_cast<long long>(sizeof(Gate)));
  EXPECT_GT(gates, 0);
}

TEST(InferenceServerTest, SustainsFourConcurrentTcpSessions) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(23);
  const BitVec weights = random_weights(spec, rng);

  runtime::ServerConfig cfg;
  cfg.max_sessions = 4;
  runtime::InferenceServer server(spec, weights, cfg);
  server.start();

  constexpr size_t kSessions = 4;
  constexpr size_t kRequests = 2;
  std::vector<std::vector<size_t>> got(kSessions), want(kSessions);
  std::vector<std::vector<BitVec>> datas(kSessions);
  {
    Rng drng(404);
    for (size_t s = 0; s < kSessions; ++s) {
      for (size_t r = 0; r < kRequests; ++r) {
        std::vector<Fixed> x;
        for (size_t i = 0; i < 5; ++i)
          x.push_back(random_fixed(drng, kDefaultFormat, 0.2));
        datas[s].push_back(pack_fixed(x));
        want[s].push_back(plaintext_label(spec, weights, datas[s].back()));
      }
    }
  }

  std::vector<std::thread> clients;
  for (size_t s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      runtime::ClientConfig ccfg;
      ccfg.seed = Block{100 + s, 200 + s};  // per-session label seeds
      runtime::InferenceClient client("127.0.0.1", server.port(), spec, ccfg);
      for (size_t r = 0; r < kRequests; ++r)
        got[s].push_back(from_bits(client.infer_bits(datas[s][r])));
      client.close();
    });
  }
  for (auto& t : clients) t.join();
  server.stop();

  for (size_t s = 0; s < kSessions; ++s)
    EXPECT_EQ(got[s], want[s]) << "session " << s;
  EXPECT_EQ(server.sessions_accepted(), kSessions);
  EXPECT_EQ(server.inferences_served(), kSessions * kRequests);
}

TEST(InferenceServerTest, RejectsFingerprintMismatch) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(31);
  runtime::InferenceServer server(spec, random_weights(spec, rng));
  server.start();

  synth::ModelSpec other = spec;  // different architecture, same inputs
  other.layers.insert(other.layers.begin() + 1,
                      synth::ActLayer{synth::ActKind::kReLU});
  // A rejected handshake is a configuration error: a retrying client
  // gives up after the first rejection instead of spending its budget.
  runtime::ClientConfig ccfg;
  ccfg.max_retries = 3;
  ccfg.backoff_base_ms = 1;
  EXPECT_THROW(
      {
        runtime::InferenceClient client("127.0.0.1", server.port(), other,
                                        ccfg);
      },
      std::runtime_error);
  server.stop();
  EXPECT_EQ(server.sessions_rejected(), 1u);
}

// Two FC masks with the same number of terms per neuron compile to the
// same served chains (the share circuit sees only the counts) but share
// different products: the front plans in the fingerprint tell them
// apart, so the handshake fails instead of the answers. Masks on layer
// 0 and on the hidden layer 2 alike.
TEST(InferenceServerTest, RejectsFrontPlanMismatch) {
  // Each of the layer's `out` neurons reads `terms` of its `in` inputs,
  // starting at `shift`.
  auto masked = [](size_t layer, size_t in, size_t out, size_t terms,
                   size_t shift) {
    synth::ModelSpec spec = small_spec();
    synth::FcLayer fc{out, std::vector<uint8_t>(in * out, 0), true};
    for (size_t o = 0; o < out; ++o)
      for (size_t i = 0; i < terms; ++i)
        fc.mask[o * in + (i + shift) % in] = 1;
    spec.layers[layer] = fc;
    return spec;
  };
  const std::pair<synth::ModelSpec, synth::ModelSpec> cases[] = {
      {masked(0, 5, 4, 3, 0), masked(0, 5, 4, 3, 1)},
      {masked(2, 4, 3, 2, 0), masked(2, 4, 3, 2, 1)},
  };
  for (const auto& [a, b] : cases) {
    const synth::ServedModel sa = synth::compile_served(a);
    const synth::ServedModel sb = synth::compile_served(b);
    ASSERT_EQ(sa.stages.size(), sb.stages.size());
    for (size_t s = 0; s < sa.stages.size(); ++s)
      ASSERT_EQ(runtime::chain_fingerprint(sa.stages[s].chain),
                runtime::chain_fingerprint(sb.stages[s].chain));
    ASSERT_NE(runtime::served_fingerprint(sa), runtime::served_fingerprint(sb));

    Rng rng(33);
    runtime::InferenceServer server(a, random_weights(a, rng));
    server.start();
    EXPECT_THROW(
        { runtime::InferenceClient client("127.0.0.1", server.port(), b); },
        std::runtime_error);
    server.stop();
    EXPECT_EQ(server.sessions_rejected(), 1u);
  }
}

// Global prefetch byte budget (shared across sessions): with room for
// exactly one artifact, a second session's push is rejected even though
// its per-session quota is untouched; consuming/closing releases the
// reservation and new pushes succeed.
TEST(InferenceServerTest, GlobalPrefetchByteBudgetSharedAcrossSessions) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(67);
  const BitVec weights = random_weights(spec, rng);

  // One artifact's table streams: constants + half-gate tables per
  // circuit of every served stage (same arithmetic as the server's
  // push-time size check).
  uint64_t artifact_bytes = 0;
  for (const synth::ServedStage& stage : synth::compile_served(spec).stages)
    for (const Circuit& c : stage.chain)
      artifact_bytes += 2 * sizeof(Block) + c.stats().table_bytes();

  runtime::ServerConfig scfg;
  scfg.max_prefetch = 4;  // per-session quota is NOT the limiter here
  scfg.max_prefetch_bytes = artifact_bytes;
  runtime::InferenceServer server(spec, weights, scfg);
  server.start();

  runtime::ClientConfig ccfg;
  ccfg.pool_target = 1;
  ccfg.auto_top_up = false;
  runtime::InferenceClient first("127.0.0.1", server.port(), spec, ccfg);
  EXPECT_EQ(first.prefetch(1), 1u);
  EXPECT_EQ(server.prefetch_bytes(), artifact_bytes);

  {
    // Second session: budget exhausted, push rejected (session killed
    // like a quota violation), metric increments.
    runtime::InferenceClient second("127.0.0.1", server.port(), spec, ccfg);
    EXPECT_THROW(second.prefetch(1), std::runtime_error);
  }
  EXPECT_EQ(server.prefetches_rejected(), 1u);
  EXPECT_EQ(server.materials_prefetched(), 1u);

  // Consuming the stored artifact releases its reservation...
  std::vector<Fixed> x;
  for (size_t i = 0; i < 5; ++i)
    x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  const BitVec out = first.infer_bits(pack_fixed(x));
  EXPECT_EQ(from_bits(out), plaintext_label(spec, weights, pack_fixed(x)));
  EXPECT_EQ(server.prefetch_bytes(), 0u);

  // ...so a fresh session can prefetch again.
  runtime::InferenceClient third("127.0.0.1", server.port(), spec, ccfg);
  EXPECT_EQ(third.prefetch(1), 1u);
  EXPECT_EQ(server.prefetch_bytes(), artifact_bytes);
  third.close();
  first.close();

  // Session teardown releases the unconsumed artifact's bytes too.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.prefetch_bytes() > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.prefetch_bytes(), 0u);
  server.stop();
}

// One on-demand inference against a server with default settings
// agrees with plaintext.
TEST(InferenceServerTest, OnDemandInferenceMatchesPlaintext) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(71);
  const BitVec weights = random_weights(spec, rng);

  runtime::InferenceServer server(spec, weights);
  server.start();

  std::vector<Fixed> x;
  for (size_t i = 0; i < 5; ++i)
    x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  const BitVec data = pack_fixed(x);

  runtime::ClientConfig ccfg;
  ccfg.seed = Block{2026, 0xE7A1};
  runtime::InferenceClient client("127.0.0.1", server.port(), spec, ccfg);
  const BitVec out = client.infer_bits(data);
  EXPECT_EQ(from_bits(out), plaintext_label(spec, weights, data));
  client.close();
  server.stop();
}

// The "ot" block accounts for the OTs of an on-demand inference: one
// label OT per evaluator input of the served chains (share bits only),
// one vector OT per input bit of every front, and exactly the batches'
// wire bytes; the session's 128 bootstrap OTs (the reverse extension's
// seeds, gc/ot.h) count once. The "front" block sizes the fronts,
// summed over the stages, with the byte formula the server uses
// (runtime::front_bytes).
TEST(InferenceServerTest, StatsJsonCountsLabelAndFrontOts) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(29);
  const BitVec weights = random_weights(spec, rng);
  runtime::InferenceServer server(spec, weights);
  server.start();
  std::vector<Fixed> x;
  for (size_t i = 0; i < 5; ++i)
    x.push_back(random_fixed(rng, kDefaultFormat, 0.2));

  const std::string before = server.stats_json();
  runtime::InferenceClient client("127.0.0.1", server.port(), spec);
  EXPECT_EQ(from_bits(client.infer_bits(pack_fixed(x))),
            plaintext_label(spec, weights, pack_fixed(x)));
  client.close();
  server.stop();
  const std::string after = server.stats_json();

  const synth::ServedModel served = synth::compile_served(spec);
  ASSERT_EQ(served.stages.size(), 2u);
  const auto label_bytes = [](long long n) {
    return n > 0 ? 8 + 128 * ((n + 7) / 8) + 16 * n : 0;
  };
  long long transfers = 128, bytes = label_bytes(128), share_bits = 0;
  for (const synth::ServedStage& stage : served.stages) {
    for (const Circuit& c : stage.chain) {
      const auto n = static_cast<long long>(c.evaluator_inputs.size());
      bytes += label_bytes(n);
      transfers += n;
    }
    share_bits += static_cast<long long>(stage.front.share_bits());
  }
  const synth::FrontPlan& p0 = served.stages[0].front;
  const synth::FrontPlan& p1 = served.stages[1].front;
  const auto m0 = static_cast<long long>(p0.ots());
  const auto m1 = static_cast<long long>(p1.ots());
  ASSERT_EQ(m0, 5 * 16);  // 5 inputs, 16 bits each
  ASSERT_EQ(m1, 4 * 16);  // 4 hidden inputs
  ASSERT_EQ(p0.correlations(), 20u * 16);  // 20 products
  ASSERT_EQ(p1.correlations(), 12u * 16);  // 12 products
  const auto front_bytes = static_cast<long long>(
      runtime::front_bytes(p0) + runtime::front_bytes(p1));
  EXPECT_EQ(front_bytes, (8 + 128 * 10 + 4 * 320) + (8 + 128 * 8 + 4 * 192));
  EXPECT_EQ(json_int(after, "gc.ot.transfers") -
                json_int(before, "gc.ot.transfers"),
            transfers + m0 + m1);
  EXPECT_EQ(json_int(after, "gc.ot.bytes") - json_int(before, "gc.ot.bytes"),
            bytes + front_bytes);
  EXPECT_EQ(json_int(after, "stages"), 2);
  EXPECT_EQ(json_int(after, "products"), 32);
  EXPECT_EQ(json_int(after, "ots"), m0 + m1);
  EXPECT_EQ(after.find("b2a_ots"), std::string::npos);
  EXPECT_EQ(json_int(after, "bytes"), front_bytes);
  EXPECT_EQ(json_int(after, "share_bits"), share_bits);
}

// A peer that would stream unframed tables (hello flag bit 0 clear) is
// rejected at the handshake even with the right fingerprint.
TEST(InferenceServerTest, RejectsFramingMismatch) {
  const synth::ModelSpec spec = small_spec();
  const uint64_t fingerprint =
      runtime::served_fingerprint(synth::compile_served(spec));
  Rng rng(37);
  runtime::InferenceServer server(spec, random_weights(spec, rng));
  server.start();

  TcpChannel raw = TcpChannel::connect("127.0.0.1", server.port());
  runtime::Hello hello;
  hello.fingerprint = fingerprint;
  hello.flags.framed_tables = false;
  runtime::send_hello(raw, hello);
  EXPECT_THROW(
      try { runtime::recv_frame(raw); } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("framing"), std::string::npos);
        throw;
      },
      std::runtime_error);
  server.stop();
  EXPECT_EQ(server.sessions_rejected(), 1u);
}

// A v9 peer (the server receiving the fronts' OTs, B2A before every
// hidden front) is refused at the handshake with a coded kHandshake
// error naming the version, before any OT byte moves.
TEST(InferenceServerTest, RejectsProtocolV9Peer) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(38);
  runtime::InferenceServer server(spec, random_weights(spec, rng));
  server.start();

  TcpChannel raw = TcpChannel::connect("127.0.0.1", server.port());
  runtime::Hello hello;
  hello.version = 9;
  hello.fingerprint = runtime::served_fingerprint(synth::compile_served(spec));
  runtime::send_hello(raw, hello);
  uint8_t type = 0;
  uint32_t len = 0;
  raw.recv_bytes(&type, 1);
  raw.recv_bytes(&len, 4);
  ASSERT_EQ(type, static_cast<uint8_t>(runtime::FrameType::kError));
  ASSERT_GT(len, 1u);
  std::vector<uint8_t> payload(len);
  raw.recv_bytes(payload.data(), len);
  EXPECT_EQ(payload[0], static_cast<uint8_t>(runtime::ErrorCode::kHandshake));
  EXPECT_NE(std::string(payload.begin() + 1, payload.end()).find("version"),
            std::string::npos);
  server.stop();
  EXPECT_EQ(server.sessions_rejected(), 1u);
}

// The served on-demand path ships every table byte as a borrowed slice:
// the garbler's windows go out of pooled slabs, so nothing in the send
// path copies a table byte (net.bytes_copied stays put).
TEST(InferenceServerTest, OnDemandInferenceCopiesNoTableBytes) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(43);
  const BitVec weights = random_weights(spec, rng);
  runtime::InferenceServer server(spec, weights);
  server.start();

  std::vector<Fixed> x;
  for (size_t i = 0; i < 5; ++i)
    x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  const BitVec data = pack_fixed(x);

  const uint64_t copied0 = netstat::bytes_copied().value();
  {
    runtime::InferenceClient client("127.0.0.1", server.port(), spec);
    EXPECT_EQ(from_bits(client.infer_bits(data)),
              plaintext_label(spec, weights, data));
    client.close();
  }
  server.stop();
  EXPECT_EQ(netstat::bytes_copied().value() - copied0, 0u);
}

// Offline/online split over a real TCP loopback: the same session runs
// one inference from prefetched material (online phase only) and one
// on-demand, on the same sample — identical outputs, both correct.
TEST(InferenceServerTest, PooledAndOnDemandProduceIdenticalOutputs) {
  const synth::ModelSpec spec = small_spec();
  // The share circuits garble the ANDs that read a server share bit as
  // one-row gates.
  for (const synth::ServedStage& stage : synth::compile_served(spec).stages)
    ASSERT_GT(stage.chain.front().stats().num_and_known, 0u);
  Rng rng(41);
  const BitVec weights = random_weights(spec, rng);

  runtime::InferenceServer server(spec, weights);
  server.start();

  std::vector<Fixed> x;
  for (size_t i = 0; i < 5; ++i)
    x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  const BitVec data = pack_fixed(x);

  runtime::ClientConfig ccfg;
  ccfg.seed = Block{2026, 727};
  ccfg.pool_target = 1;
  ccfg.auto_top_up = false;  // deterministic drain after one pooled infer
  runtime::InferenceClient client("127.0.0.1", server.port(), spec, ccfg);
  client.prefetch(1);
  EXPECT_EQ(client.prefetched(), 1u);

  const BitVec pooled = client.infer_bits(data);     // online phase
  const BitVec ondemand = client.infer_bits(data);   // drained: fallback
  EXPECT_EQ(pooled, ondemand);
  EXPECT_EQ(from_bits(pooled), plaintext_label(spec, weights, data));
  EXPECT_EQ(client.pooled_inferences(), 1u);
  EXPECT_EQ(client.ondemand_inferences(), 1u);
  client.close();
  server.stop();
  EXPECT_EQ(server.inferences_served(), 2u);
  EXPECT_EQ(server.inferences_pooled(), 1u);
  EXPECT_EQ(server.materials_prefetched(), 1u);
}

TEST(InferenceServerTest, EnforcesPrefetchQuota) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(47);
  runtime::ServerConfig scfg;
  scfg.max_prefetch = 1;
  runtime::InferenceServer server(spec, random_weights(spec, rng), scfg);
  server.start();

  runtime::ClientConfig ccfg;
  ccfg.pool_target = 2;
  ccfg.auto_top_up = false;
  runtime::InferenceClient client("127.0.0.1", server.port(), spec, ccfg);
  EXPECT_EQ(client.prefetch(1), 1u);
  // Clamped client-side to the quota the ack advertised — no wire
  // traffic, no kError, and the session stays usable.
  EXPECT_EQ(client.prefetch(5), 1u);
  std::vector<Fixed> x;
  for (size_t i = 0; i < 5; ++i)
    x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  EXPECT_NO_THROW(client.infer_bits(pack_fixed(x)));
  client.close();
  server.stop();
  EXPECT_EQ(server.materials_prefetched(), 1u);
}

// Drive the server's own kPrefetch rejection branches with a raw
// frame-level client (the real InferenceClient mirrors the quota and
// always sends well-formed material, so these paths need a misbehaving
// peer).
TEST(InferenceServerTest, RejectsBadPrefetchFrames) {
  const synth::ModelSpec spec = small_spec();
  const uint64_t fingerprint =
      runtime::served_fingerprint(synth::compile_served(spec));
  Rng rng(53);

  auto handshake = [&](TcpChannel& raw) {
    runtime::Hello hello;
    // Match the server: the served model's fingerprint.
    hello.fingerprint = fingerprint;
    runtime::send_hello(raw, hello);
    const runtime::Frame ack = runtime::recv_frame(raw);
    ASSERT_EQ(ack.type, runtime::FrameType::kHelloAck);
  };

  {
    // Quota exceeded: a server with max_prefetch = 0 rejects the first
    // push outright.
    runtime::ServerConfig scfg;
    scfg.max_prefetch = 0;
    runtime::InferenceServer server(spec, random_weights(spec, rng), scfg);
    server.start();
    TcpChannel raw = TcpChannel::connect("127.0.0.1", server.port());
    handshake(raw);
    runtime::send_id_frame(raw, runtime::FrameType::kPrefetch, 1);
    EXPECT_THROW(
        try { runtime::recv_frame(raw); } catch (const std::exception& e) {
          EXPECT_NE(std::string(e.what()).find("quota"), std::string::npos);
          throw;
        },
        std::runtime_error);
    server.stop();
  }
  {
    // Material that cannot belong to the chain (empty decode bits +
    // empty tables): rejected at push time, not at kInfer time.
    runtime::InferenceServer server(spec, random_weights(spec, rng));
    server.start();
    TcpChannel raw = TcpChannel::connect("127.0.0.1", server.port());
    handshake(raw);
    runtime::send_id_frame(raw, runtime::FrameType::kPrefetch, 1);
    raw.send_bits({});  // decode bits
    raw.send_u64(0);    // table byte count
    EXPECT_THROW(
        try { runtime::recv_frame(raw); } catch (const std::exception& e) {
          EXPECT_NE(std::string(e.what()).find("match"), std::string::npos);
          throw;
        },
        std::runtime_error);
    server.stop();
    EXPECT_EQ(server.materials_prefetched(), 0u);
  }
}

// Idle-timeout satellite: a connected-but-silent client is dropped so
// it cannot pin one of the max_sessions slots forever.
TEST(InferenceServerTest, IdleTimeoutFreesSessionSlot) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(59);
  runtime::ServerConfig scfg;
  scfg.idle_timeout_ms = kIdleTimeoutMs;
  runtime::InferenceServer server(spec, random_weights(spec, rng), scfg);
  server.start();

  auto client = std::make_unique<runtime::InferenceClient>(
      "127.0.0.1", server.port(), spec);
  // accepted (monotonic) rather than active: on a stalled runner the
  // reaper may fire before this thread gets to assert.
  EXPECT_EQ(server.sessions_accepted(), 1u);
  // Say nothing: the server must reap the session on its own.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (server.sessions_active() > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.sessions_active(), 0u);
  client.reset();  // close() on the dead socket is absorbed by the dtor
  server.stop();
}

// Async prefetch lane (protocol v4): a client that drains its pool
// mid-burst refills through the second connection concurrently with
// inference traffic — once a refilled artifact is visible, no request
// ever falls back to on-demand garbling. With max_prefetch equal to
// pool_target only the in-flight term of the lane's wait keeps a push
// from racing an unserved kInfer into the server's quota, which would
// kill the lane.
TEST(InferenceServerTest, AsyncPrefetchLaneRefillsUnderBurst) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(73);
  const BitVec weights = random_weights(spec, rng);

  for (size_t max_prefetch : {size_t{4}, size_t{2}}) {
    SCOPED_TRACE("max_prefetch " + std::to_string(max_prefetch));
    runtime::ServerConfig scfg;
    scfg.max_prefetch = max_prefetch;
    runtime::InferenceServer server(spec, weights, scfg);
    server.start();

    runtime::ClientConfig ccfg;
    ccfg.seed = Block{2026, 0xA51};
    ccfg.pool_target = 2;
    ccfg.async_prefetch = true;
    runtime::InferenceClient client("127.0.0.1", server.port(), spec, ccfg);
    EXPECT_EQ(client.prefetch(2), 2u);
    EXPECT_TRUE(client.lane_active());

    constexpr size_t kBurst = 6;  // 3x the pool: drains to empty twice
    Rng drng(505);
    for (size_t r = 0; r < kBurst; ++r) {
      std::vector<Fixed> x;
      for (size_t i = 0; i < 5; ++i)
        x.push_back(random_fixed(drng, kDefaultFormat, 0.2));
      const BitVec data = pack_fixed(x);
      // Drain-heavy burst, but only race ahead against warm material:
      // wait for the lane's refill when the store is empty. The
      // assertion below is exactly "no on-demand fallback once the
      // quota allows".
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (client.prefetched() == 0 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ASSERT_GT(client.prefetched(), 0u) << "lane refill stalled";
      const BitVec out = client.infer_bits(data);
      EXPECT_EQ(from_bits(out), plaintext_label(spec, weights, data));
    }
    EXPECT_EQ(client.pooled_inferences(), kBurst);
    EXPECT_EQ(client.ondemand_inferences(), 0u);
    EXPECT_TRUE(client.lane_active());
    EXPECT_NO_THROW(client.close());
    server.stop();
    EXPECT_EQ(server.inferences_pooled(), kBurst);
    EXPECT_EQ(server.inferences_served(), kBurst);
    EXPECT_EQ(server.lanes_attached(), 1u);
    // Everything the burst left behind was settled on teardown.
    EXPECT_EQ(server.prefetch_bytes(), 0u);
  }
}

// The whole concurrency surface at once: four pooled sessions whose
// pools garble on their producer threads and refill the server through
// their async lanes, served concurrently by the reactor's workers.
// Every request hits warm material.
TEST(InferenceServerTest, ConcurrentPooledSessionsOverAsyncLanes) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(83);
  const BitVec weights = random_weights(spec, rng);

  runtime::InferenceServer server(spec, weights);
  server.start();

  constexpr size_t kSessions = 4;
  constexpr size_t kRequests = 2;
  std::vector<std::vector<BitVec>> datas(kSessions);
  std::vector<std::vector<size_t>> got(kSessions), want(kSessions);
  Rng drng(606);
  for (size_t s = 0; s < kSessions; ++s)
    for (size_t r = 0; r < kRequests; ++r) {
      std::vector<Fixed> x;
      for (size_t i = 0; i < 5; ++i)
        x.push_back(random_fixed(drng, kDefaultFormat, 0.2));
      datas[s].push_back(pack_fixed(x));
      want[s].push_back(plaintext_label(spec, weights, datas[s].back()));
    }

  std::vector<std::thread> clients;
  for (size_t s = 0; s < kSessions; ++s)
    clients.emplace_back([&, s] {
      runtime::ClientConfig ccfg;
      ccfg.seed = Block{700 + s, 800 + s};
      ccfg.pool_target = kRequests;
      ccfg.async_prefetch = true;
      ccfg.auto_top_up = false;
      runtime::InferenceClient client("127.0.0.1", server.port(), spec, ccfg);
      client.prefetch(kRequests);
      for (size_t r = 0; r < kRequests; ++r)
        got[s].push_back(from_bits(client.infer_bits(datas[s][r])));
      client.close();
    });
  for (auto& t : clients) t.join();
  server.stop();

  for (size_t s = 0; s < kSessions; ++s)
    EXPECT_EQ(got[s], want[s]) << "session " << s;
  EXPECT_EQ(server.inferences_pooled(), kSessions * kRequests);
  EXPECT_EQ(server.inferences_served(), kSessions * kRequests);
  EXPECT_EQ(server.lanes_attached(), kSessions);
  EXPECT_EQ(server.prefetch_bytes(), 0u);
}

TEST(InferenceServerTest, AttachLaneRejectsUnknownToken) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(79);
  runtime::InferenceServer server(spec, random_weights(spec, rng));
  server.start();

  TcpChannel lane = TcpChannel::connect("127.0.0.1", server.lane_port());
  runtime::send_id_frame(lane, runtime::FrameType::kAttachLane, 0xBADull);
  EXPECT_THROW(
      try { runtime::recv_frame(lane); } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("token"), std::string::npos);
        throw;
      },
      std::runtime_error);
  server.stop();
  EXPECT_EQ(server.lanes_rejected(), 1u);
  EXPECT_EQ(server.lanes_attached(), 0u);
}

// Budget-leak regression (the satellite fix): a push the server rejects
// must release its global-budget reservation IMMEDIATELY — not at
// session teardown — or one malformed push would starve every other
// session's prefetching for this session's remaining lifetime. The
// push rides the lane, whose failure leaves the session alive, so the
// assertion below cannot be satisfied by teardown accounting.
TEST(InferenceServerTest, FailedLanePushReleasesBudgetWhileSessionLives) {
  const synth::ModelSpec spec = small_spec();
  const uint64_t fingerprint =
      runtime::served_fingerprint(synth::compile_served(spec));
  Rng rng(83);
  runtime::InferenceServer server(spec, random_weights(spec, rng));
  server.start();

  // Real handshake to obtain the lane token + port.
  TcpChannel raw = TcpChannel::connect("127.0.0.1", server.port());
  runtime::Hello hello;
  hello.fingerprint = fingerprint;
  runtime::send_hello(raw, hello);
  const runtime::HelloAck ack =
      runtime::parse_hello_ack(runtime::recv_frame(raw));

  TcpChannel lane = TcpChannel::connect("127.0.0.1", ack.lane_port);
  runtime::send_id_frame(lane, runtime::FrameType::kAttachLane,
                         ack.lane_token);
  ASSERT_EQ(runtime::recv_frame(lane).type,
            runtime::FrameType::kAttachLaneAck);

  // Malformed push: empty decode bits + zero-length tables — rejected
  // at push time. The reservation was made before the material was
  // read; the rejection must give it back.
  runtime::send_id_frame(lane, runtime::FrameType::kPrefetch, 1);
  lane.send_bits({});
  lane.send_u64(0);
  EXPECT_THROW(
      try { runtime::recv_frame(lane); } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("match"), std::string::npos);
        throw;
      },
      std::runtime_error);

  // The primary session is still alive (only the lane died), so a
  // non-zero reading here would be a real leak, not pending teardown.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.prefetch_bytes() > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.prefetch_bytes(), 0u);
  EXPECT_EQ(server.sessions_active(), 1u);
  EXPECT_EQ(server.materials_prefetched(), 0u);

  runtime::send_frame(raw, runtime::FrameType::kBye);
  server.stop();
}

// Teardown path: a client that vanishes mid-push (reservation made,
// material half-sent) must not strand its bytes in the global budget.
TEST(InferenceServerTest, SessionDeathMidPushReleasesBudget) {
  const synth::ModelSpec spec = small_spec();
  const synth::ServedModel served = synth::compile_served(spec);
  Rng rng(89);
  runtime::InferenceServer server(spec, random_weights(spec, rng));
  server.start();
  {
    TcpChannel raw = TcpChannel::connect("127.0.0.1", server.port());
    runtime::Hello hello;
    hello.fingerprint = runtime::served_fingerprint(served);
    runtime::send_hello(raw, hello);
    (void)runtime::recv_frame(raw);  // ack
    runtime::send_id_frame(raw, runtime::FrameType::kPrefetch, 1);
    raw.send_bits({});  // stage 0 is not opened: no decode bits
    // Hang up before its table size: the server is now mid
    // recv_material with the reservation held.
  }  // socket closes here
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((server.prefetch_bytes() > 0 || server.sessions_active() > 0) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.prefetch_bytes(), 0u);
  EXPECT_EQ(server.sessions_active(), 0u);
  server.stop();
}

// The full core-API path — a trained-network-shaped model, sample
// encoding via sample_bits / weight_bits — over a real TCP loopback.
TEST(InferenceServerTest, NetworkModelSecureInferOverTcp) {
  Rng rng(53);
  nn::Network net(nn::Shape{1, 1, 6});
  net.dense(4, rng).act(nn::Act::kReLU).dense(2, rng);

  SecureInferenceOptions opt;
  const synth::ModelSpec spec = model_spec_from_network(net, opt, "tcp_mlp");
  const BitVec weights = weight_bits(net, opt.fmt);

  runtime::InferenceServer server(spec, weights);
  server.start();

  const nn::VecF sample{0.1f, -0.2f, 0.05f, 0.3f, -0.15f, 0.2f};
  const BitVec data = sample_bits(sample, opt.fmt);

  runtime::InferenceClient client("127.0.0.1", server.port(), spec);
  const size_t label = from_bits(client.infer_bits(data));
  client.close();
  server.stop();

  EXPECT_EQ(label, plaintext_label(spec, weights, data));
}

// 256-session loopback soak: raw frame-level sessions (handshake + one
// cheap exchange — no garbling) so the load is on the CORE (accept,
// readiness dispatch, session-slot gating, teardown accounting), not on
// crypto. Concurrency intentionally exceeds max_sessions, so the
// listener-gating / slot-wait path is exercised the whole run. Half the
// sessions end with a malformed kPrefetch (reservation made, push
// rejected, session killed by kError) and half with a clean kBye —
// both teardown paths must settle: zero dropped handshakes, zero
// sessions left active, and a fully returned prefetch byte budget.
TEST(InferenceServerTest, Soaks256LoopbackSessions) {
  const synth::ModelSpec spec = small_spec();
  const uint64_t fingerprint =
      runtime::served_fingerprint(synth::compile_served(spec));
  Rng rng(97);

  runtime::ServerConfig scfg;
  scfg.max_sessions = 16;  // < concurrency: the gate stays hot
  runtime::InferenceServer server(spec, random_weights(spec, rng), scfg);
  server.start();

  constexpr size_t kThreads = 32;
  constexpr size_t kSessionsPerThread = 8;  // 256 total
  std::atomic<size_t> handshakes_ok{0};
  std::vector<std::thread> soak;
  for (size_t t = 0; t < kThreads; ++t) {
    soak.emplace_back([&, t] {
      for (size_t s = 0; s < kSessionsPerThread; ++s) {
        TcpChannel raw = TcpChannel::connect("127.0.0.1", server.port());
        runtime::Hello hello;
        hello.fingerprint = fingerprint;
        runtime::send_hello(raw, hello);
        const runtime::Frame ack = runtime::recv_frame(raw);
        if (ack.type != runtime::FrameType::kHelloAck) return;  // dropped
        handshakes_ok.fetch_add(1);
        if ((t + s) % 2 == 0) {
          // Malformed push: reserves budget, gets rejected, session
          // dies by kError — the reservation must come back.
          runtime::send_id_frame(raw, runtime::FrameType::kPrefetch, 1);
          raw.send_bits({});
          raw.send_u64(0);
          EXPECT_THROW((void)runtime::recv_frame(raw), std::runtime_error);
        } else {
          runtime::send_frame(raw, runtime::FrameType::kBye);
        }
      }
    });
  }
  for (auto& th : soak) th.join();

  EXPECT_EQ(handshakes_ok.load(), kThreads * kSessionsPerThread)
      << "dropped sessions under soak";
  EXPECT_EQ(server.sessions_accepted(), kThreads * kSessionsPerThread);

  // Teardown is asynchronous: poll until settled.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((server.sessions_active() > 0 || server.prefetch_bytes() > 0) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.sessions_active(), 0u);
  EXPECT_EQ(server.prefetch_bytes(), 0u);
  server.stop();
}

}  // namespace
}  // namespace deepsecure
