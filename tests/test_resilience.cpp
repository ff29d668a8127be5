// Fault-injection harness + self-healing session layer, end to end:
// deterministic chaos plans (net/fault_channel.h), client reconnect
// with backoff and material poisoning (runtime/client.h), server load
// shedding (kBusy) and frame-parser hardening.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deepsecure.h"
#include "net/fault_channel.h"
#include "net/tcp_channel.h"
#include "nn/network.h"
#include "runtime/client.h"
#include "runtime/frame.h"
#include "runtime/server.h"
#include "support/rng.h"
#include "test_util.h"

namespace deepsecure {
namespace {

using test::pack_fixed;
using test::random_fixed;

synth::ModelSpec small_spec() {
  synth::ModelSpec spec;
  spec.name = "resilience_test_mlp";
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

size_t plaintext_label(const synth::ModelSpec& spec, const BitVec& weights,
                       const BitVec& data) {
  const Circuit mono = synth::compile_model(spec);
  return from_bits(mono.eval(data, weights));
}

BitVec random_sample(Rng& rng) {
  std::vector<Fixed> x;
  for (size_t i = 0; i < 5; ++i)
    x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  return pack_fixed(x);
}

// ---------------------------------------------------------------------
// Fault-plan determinism: no sockets, no timing — the plan is a pure
// function of (seed, plan_index).
// ---------------------------------------------------------------------

// Inner channel that absorbs everything: any fault the decorator
// injects is observable purely through injected() and thrown resets.
class NullChannel final : public Channel {
 public:
  void send_bytes(const void*, size_t) override {}
  void recv_bytes(void* data, size_t n) override { std::memset(data, 0, n); }
  size_t recv_some(void* data, size_t, size_t max_n) override {
    std::memset(data, 0, max_n);
    return max_n;
  }
  uint64_t bytes_sent() const override { return 0; }
  uint64_t bytes_received() const override { return 0; }
  void reset_counters() override {}
};

// Drives a fixed operation schedule through a FaultChannel and records,
// per op, the cumulative injected-fault count and whether the op threw
// (a reset). Two equal traces ⇒ byte-identical fault plans.
std::vector<std::pair<uint64_t, bool>> fault_trace(uint64_t seed, double rate,
                                                   uint64_t plan_index) {
  NullChannel inner;
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.rate = rate;
  FaultChannel ch(inner, cfg, plan_index);
  std::vector<std::pair<uint64_t, bool>> trace;
  uint8_t buf[96];
  std::memset(buf, 0x5a, sizeof(buf));
  for (size_t op = 0; op < 300; ++op) {
    bool threw = false;
    try {
      switch (op % 3) {
        case 0:
          ch.send_bytes(buf, sizeof(buf));
          break;
        case 1:
          ch.recv_bytes(buf, sizeof(buf));
          break;
        default:
          (void)ch.recv_some(buf, 1, sizeof(buf));
      }
    } catch (const std::exception&) {
      threw = true;  // injected reset; channel stays drivable
    }
    trace.emplace_back(ch.injected(), threw);
  }
  return trace;
}

TEST(FaultPlan, IdenticalSeedYieldsIdenticalFaultSchedule) {
  const auto a = fault_trace(0x1badb002, 0.2, 7);
  const auto b = fault_trace(0x1badb002, 0.2, 7);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.back().first, 0u) << "rate 0.2 over 300 ops must inject";
}

TEST(FaultPlan, SeedAndPlanIndexEachSelectDistinctSchedules) {
  const auto base = fault_trace(0x1badb002, 0.2, 7);
  EXPECT_NE(base, fault_trace(0x2badb002, 0.2, 7)) << "seed must matter";
  EXPECT_NE(base, fault_trace(0x1badb002, 0.2, 8))
      << "plan_index must derive an independent stream";
}

TEST(FaultPlan, RateZeroNeverInjects) {
  const auto t = fault_trace(0x1badb002, 0.0, 7);
  EXPECT_EQ(t.back().first, 0u);
  for (const auto& [injected, threw] : t) EXPECT_FALSE(threw);
}

// Split faults (short writes, vectored straddles) must preserve the
// byte stream exactly — chaos reorders operations, never payloads.
class CaptureChannel final : public Channel {
 public:
  void send_bytes(const void* data, size_t n) override {
    const auto* p = static_cast<const uint8_t*>(data);
    got.insert(got.end(), p, p + n);
  }
  void recv_bytes(void* data, size_t n) override { std::memset(data, 0, n); }
  uint64_t bytes_sent() const override { return got.size(); }
  uint64_t bytes_received() const override { return 0; }
  void reset_counters() override {}
  std::vector<uint8_t> got;
};

TEST(FaultPlan, ShortWriteSplitsPreserveByteStream) {
  CaptureChannel inner;
  FaultConfig cfg;
  cfg.seed = 0xfeedface;
  cfg.rate = 0.6;  // dense faults: exercise the split paths hard
  FaultChannel ch(inner, cfg, 0);

  std::vector<uint8_t> expected;
  Rng rng(31337);
  for (size_t op = 0; op < 120; ++op) {
    // Three buffers sent as one vectored call on odd ops, a flat
    // send on even ops; straddle splits copy BufferRefs, so back the
    // slices with stable storage for the duration of the call.
    std::vector<uint8_t> a(17 + op % 64), b(5), c(41);
    for (auto* v : {&a, &b, &c})
      for (auto& byte : *v) byte = static_cast<uint8_t>(rng.next_u64());
    try {
      if (op % 2 == 0) {
        ch.send_bytes(a.data(), a.size());
        expected.insert(expected.end(), a.begin(), a.end());
      } else {
        IoSlice sl[3] = {{a.data(), a.size(), {}},
                         {b.data(), b.size(), {}},
                         {c.data(), c.size(), {}}};
        ch.send_iov(sl, 3);
        for (auto* v : {&a, &b, &c})
          expected.insert(expected.end(), v->begin(), v->end());
      }
    } catch (const std::exception&) {
      // Injected reset: thrown BEFORE any inner write, so the capture
      // must not contain a torn prefix of this op's payload.
    }
  }
  EXPECT_EQ(inner.got, expected);
}

// ---------------------------------------------------------------------
// Server-facing resilience.
// ---------------------------------------------------------------------

// Chaos soak in miniature: both endpoints wrapped in seeded fault
// channels, a generous retry budget, and every answer checked against
// the plaintext reference. Whatever the dice injected, completion must
// be 100% byte-correct and the prefetch budget must settle to zero.
TEST(ServerResilience, ChaosRunCompletesByteCorrectWithZeroBudgetLeak) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(61);
  const BitVec weights = random_weights(spec, rng);

  runtime::ServerConfig cfg;
  cfg.chaos.seed = 0xc4a05eed;
  cfg.chaos.rate = 0.01;
  runtime::InferenceServer server(spec, weights, cfg);
  server.start();

  const uint64_t injected_before = faultstat::injected().value();

  runtime::ClientConfig ccfg;
  ccfg.seed = Block{4242, 99};
  ccfg.stream.garble_threads = 2;
  ccfg.pool_target = 2;
  ccfg.chaos.seed = 0xc4a05eed ^ 0xc11e47ull;
  ccfg.chaos.rate = 0.01;
  ccfg.max_retries = 30;
  ccfg.backoff_base_ms = 1;
  ccfg.backoff_cap_ms = 30;
  runtime::InferenceClient client("127.0.0.1", server.port(), spec, ccfg);

  for (size_t r = 0; r < 6; ++r) {
    const BitVec data = random_sample(rng);
    EXPECT_EQ(from_bits(client.infer_bits(data)),
              plaintext_label(spec, weights, data))
        << "request " << r << " after " << client.retries() << " retries";
  }
  const uint64_t retries = client.retries();
  const uint64_t recovered = client.sessions_recovered();
  const uint64_t poisoned = client.poisoned();
  try {
    client.close();
  } catch (const std::exception&) {
    // a chaos fault on the goodbye path is fine — work already checked
  }
  server.stop();

  EXPECT_GT(faultstat::injected().value(), injected_before)
      << "rate 0.01 across a full chaos run must inject at least once";
  // Recovery bookkeeping is internally consistent whatever fired.
  EXPECT_GE(retries, recovered);
  if (recovered == 0) {
    EXPECT_EQ(poisoned, 0u);
  }
  // The tentpole invariant: however many sessions died mid-push, every
  // prefetch reservation was settled exactly once.
  EXPECT_EQ(server.prefetch_bytes(), 0u);

  const std::string js = server.stats_json();
  for (const char* key : {"\"resilience\"", "\"fault.injected\"",
                          "\"client.retries\"", "\"pool.poisoned\""})
    EXPECT_NE(js.find(key), std::string::npos) << key << " missing:\n" << js;
}

// Saturated server + shed_on_overload: the second client is told kBusy
// with a retry hint instead of waiting in the backlog, backs off, and
// completes once the slot frees.
TEST(ServerResilience, ShedsWithBusyAndClientBacksOffUntilSlotFrees) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(67);
  const BitVec weights = random_weights(spec, rng);

  runtime::ServerConfig cfg;
  cfg.max_sessions = 1;
  cfg.shed_on_overload = true;
  cfg.busy_retry_after_ms = 5;
  runtime::InferenceServer server(spec, weights, cfg);
  server.start();

  runtime::ClientConfig holder_cfg;
  holder_cfg.seed = Block{7001, 1};
  runtime::InferenceClient holder("127.0.0.1", server.port(), spec,
                                  holder_cfg);  // occupies the only slot

  const BitVec data = random_sample(rng);
  const size_t want = plaintext_label(spec, weights, data);

  std::atomic<uint64_t> shed_retries{0};
  std::atomic<size_t> got{~size_t{0}};
  std::string error;
  std::thread second([&] {
    try {
      runtime::ClientConfig c2;
      c2.seed = Block{7002, 2};
      c2.max_retries = 400;  // outlasts the holder under sanitizers
      c2.backoff_base_ms = 1;
      c2.backoff_cap_ms = 10;
      runtime::InferenceClient client("127.0.0.1", server.port(), spec, c2);
      shed_retries = client.retries();
      got = from_bits(client.infer_bits(data));
      client.close();
    } catch (const std::exception& e) {
      error = e.what();
    }
  });

  // Vacate the slot only once the server has demonstrably shed the
  // second client at least once (a fixed sleep would race sanitizer
  // slowdowns: the second client might not even connect before the
  // holder leaves).
  const auto shed_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.sessions_shed() == 0 &&
         std::chrono::steady_clock::now() < shed_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  holder.close();
  second.join();

  EXPECT_EQ(error, "");
  EXPECT_EQ(got.load(), want);
  EXPECT_GE(server.sessions_shed(), 1u)
      << "the saturated admission must have shed at least one attempt";
  EXPECT_GE(shed_retries.load(), 1u)
      << "the client must have consumed kBusy via its backoff loop";
  server.stop();
  EXPECT_EQ(server.prefetch_bytes(), 0u);
}

// Sends raw bytes at the primary port and expects the server to refuse
// the conversation: either a coded kError frame (surfaced by
// recv_frame as "peer error") or a straight close. Never a hang, and
// never a valid reply frame.
void poke_raw(uint16_t port, const std::vector<uint8_t>& bytes,
              bool read_reply) {
  TcpChannel ch = TcpChannel::connect("127.0.0.1", port);
  ch.set_recv_timeout_ms(3000);
  try {
    ch.send_bytes(bytes.data(), bytes.size());
  } catch (const std::exception&) {
    // server may already have reset us mid-send; that is a rejection
  }
  if (read_reply) {
    try {
      const runtime::Frame f = runtime::recv_frame(ch);
      ADD_FAILURE() << "server answered garbage with a valid frame of type "
                    << static_cast<int>(f.type);
    } catch (const std::exception&) {
      // kError (thrown as "peer error"), reset, or close — all fine
    }
  }
}

std::vector<uint8_t> frame_header(uint8_t type, uint32_t len) {
  std::vector<uint8_t> b(5);
  b[0] = type;
  std::memcpy(b.data() + 1, &len, 4);
  return b;
}

// Frame-parser hardening: truncated headers, oversized lengths,
// unknown types, mid-payload EOF and raw garbage must each unwind one
// connection without wedging the server or leaking prefetch budget.
TEST(ServerResilience, FrameParserSurvivesGarbageTruncationAndOversize) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(71);
  const BitVec weights = random_weights(spec, rng);

  runtime::InferenceServer server(spec, weights);
  server.start();

  // Unknown frame type, well-formed length.
  {
    auto b = frame_header(0xEE, 4);
    b.insert(b.end(), {1, 2, 3, 4});
    poke_raw(server.port(), b, /*read_reply=*/true);
  }
  // Oversized length field (beyond the control-frame cap).
  poke_raw(server.port(), frame_header(1 /*kHello*/, 0x7fffffff),
           /*read_reply=*/true);
  // Truncated header: one lonely type byte, then close.
  poke_raw(server.port(), {1}, /*read_reply=*/false);
  // Mid-payload EOF: hello header promising 21 bytes, delivering 3.
  {
    auto b = frame_header(1 /*kHello*/, 21);
    b.insert(b.end(), {9, 9, 9});
    poke_raw(server.port(), b, /*read_reply=*/false);
  }
  // Unstructured garbage.
  poke_raw(server.port(), std::vector<uint8_t>(64, 0xA5),
           /*read_reply=*/true);

  // The server must still be fully serviceable afterwards.
  const BitVec data = random_sample(rng);
  runtime::ClientConfig ccfg;
  ccfg.seed = Block{8088, 3};
  ccfg.stream.garble_threads = 2;
  runtime::InferenceClient client("127.0.0.1", server.port(), spec, ccfg);
  EXPECT_EQ(from_bits(client.infer_bits(data)),
            plaintext_label(spec, weights, data));
  client.close();
  server.stop();

  EXPECT_EQ(server.prefetch_bytes(), 0u)
      << "malformed sessions must not strand budget reservations";
  EXPECT_EQ(server.inferences_served(), 1u);
}

// Kill the server mid-session with warm material parked client-side,
// restart it on the same port, and let the client self-heal: reconnect
// with backoff, poison every one-shot artifact tied to the dead
// session, and answer byte-correct with fresh material.
TEST(ServerResilience, ClientRecoversAcrossServerRestartWithFreshMaterial) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(73);
  const BitVec weights = random_weights(spec, rng);

  auto server1 = std::make_unique<runtime::InferenceServer>(spec, weights);
  server1->start();
  const uint16_t port = server1->port();

  runtime::ClientConfig ccfg;
  ccfg.seed = Block{9099, 4};
  ccfg.stream.garble_threads = 2;
  ccfg.pool_target = 2;
  ccfg.max_retries = 40;
  ccfg.backoff_base_ms = 1;
  ccfg.backoff_cap_ms = 50;
  runtime::InferenceClient client("127.0.0.1", port, spec, ccfg);

  const BitVec d1 = random_sample(rng);
  EXPECT_EQ(from_bits(client.infer_bits(d1)),
            plaintext_label(spec, weights, d1));

  // Park at least one warm artifact on the doomed session so recovery
  // has something to poison (one-shot invariant: never replayed).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  while (client.prefetched() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    client.top_up();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(client.prefetched(), 1u) << "pool never produced an artifact";

  server1->stop();
  server1.reset();

  // Rebind the same port (SO_REUSEADDR); give the kernel a beat if the
  // old listener is still draining.
  std::unique_ptr<runtime::InferenceServer> server2;
  runtime::ServerConfig cfg2;
  cfg2.port = port;
  for (int attempt = 0; server2 == nullptr; ++attempt) {
    try {
      server2 = std::make_unique<runtime::InferenceServer>(spec, weights,
                                                           cfg2);
    } catch (const std::exception&) {
      if (attempt >= 50) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  server2->start();

  const BitVec d2 = random_sample(rng);
  EXPECT_EQ(from_bits(client.infer_bits(d2)),
            plaintext_label(spec, weights, d2));

  EXPECT_GE(client.sessions_recovered(), 1u);
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GE(client.poisoned(), 1u)
      << "warm artifacts bound to the dead session must be poisoned";

  client.close();
  server2->stop();
  EXPECT_EQ(server2->prefetch_bytes(), 0u);
  EXPECT_GE(server2->inferences_served(), 1u);
}

}  // namespace
}  // namespace deepsecure
