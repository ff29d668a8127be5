// Fault-injection harness + self-healing session layer, end to end:
// deterministic chaos plans (net/fault_channel.h), client reconnect
// with backoff and material poisoning (runtime/client.h), server load
// shedding (kBusy) and frame-parser hardening.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/schedule.h"
#include "core/deepsecure.h"
#include "net/fault_channel.h"
#include "net/party.h"
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

// Split faults (short writes) must preserve the byte stream exactly —
// chaos reorders operations, never payloads.
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
    // One buffer on even ops, three back-to-back sends on odd ops.
    std::vector<uint8_t> a(17 + op % 64), b(5), c(41);
    for (auto* v : {&a, &b, &c})
      for (auto& byte : *v) byte = static_cast<uint8_t>(rng.next_u64());
    try {
      for (auto* v : op % 2 == 0 ? std::vector{&a} : std::vector{&a, &b, &c}) {
        ch.send_bytes(v->data(), v->size());
        expected.insert(expected.end(), v->begin(), v->end());
      }
    } catch (const std::exception&) {
      // Injected reset: thrown BEFORE any inner write, so the capture
      // must not contain a torn prefix of this send's payload.
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
// Two inputs: one session at a low rate, and four concurrent sessions
// at a high one, where recoveries race each other's pool refills.
struct ChaosCase {
  uint64_t seed;
  double rate;
  size_t sessions;
  size_t requests;
};

void run_chaos(const ChaosCase& cc) {
  SCOPED_TRACE(::testing::Message() << "seed " << cc.seed << " rate "
                                    << cc.rate << ", " << cc.sessions
                                    << " sessions x " << cc.requests);
  const synth::ModelSpec spec = small_spec();
  Rng rng(61);
  const BitVec weights = random_weights(spec, rng);

  runtime::ServerConfig cfg;
  cfg.chaos.seed = cc.seed;
  cfg.chaos.rate = cc.rate;
  runtime::InferenceServer server(spec, weights, cfg);
  server.start();

  const uint64_t injected_before = faultstat::injected().value();

  std::vector<std::string> errors(cc.sessions);
  std::vector<std::thread> clients;
  for (size_t s = 0; s < cc.sessions; ++s)
    clients.emplace_back([&, s] {
      Rng drng(500 + s);
      try {
        runtime::ClientConfig ccfg;
        ccfg.seed = Block{4242 + s, 99};
        ccfg.pool_target = 2;
        // Distinct plan seeds per endpoint: the two fault sequences stay
        // decorrelated but both reproducible.
        ccfg.chaos.seed = cc.seed ^ 0xc11e47ull;
        ccfg.chaos.rate = cc.rate;
        ccfg.max_retries = 30;
        ccfg.backoff_base_ms = 1;
        ccfg.backoff_cap_ms = 30;
        runtime::InferenceClient client("127.0.0.1", server.port(), spec,
                                        ccfg);
        for (size_t r = 0; r < cc.requests; ++r) {
          const BitVec data = random_sample(drng);
          EXPECT_EQ(from_bits(client.infer_bits(data)),
                    plaintext_label(spec, weights, data))
              << "session " << s << " request " << r << " after "
              << client.retries() << " retries";
        }
        // Recovery bookkeeping is internally consistent whatever fired.
        EXPECT_GE(client.retries(), client.sessions_recovered());
        if (client.sessions_recovered() == 0) {
          EXPECT_EQ(client.poisoned(), 0u);
        }
        try {
          client.close();
        } catch (const std::exception&) {
          // a chaos fault on the goodbye path is fine — work already
          // checked
        }
      } catch (const std::exception& e) {
        errors[s] = e.what();
      }
    });
  for (auto& t : clients) t.join();
  server.stop();

  for (size_t s = 0; s < cc.sessions; ++s)
    EXPECT_EQ(errors[s], "") << "session " << s << " did not complete";
  EXPECT_GT(faultstat::injected().value(), injected_before)
      << "a full chaos run must inject at least once";
  // The budget invariant: however many sessions died mid-push, every
  // prefetch reservation was settled exactly once.
  EXPECT_EQ(server.prefetch_bytes(), 0u);

  const std::string js = server.stats_json();
  for (const char* key : {"\"resilience\"", "\"fault.injected\"",
                          "\"client.retries\"", "\"pool.poisoned\""})
    EXPECT_NE(js.find(key), std::string::npos) << key << " missing:\n" << js;
}

TEST(ServerResilience, ChaosRunCompletesByteCorrectWithZeroBudgetLeak) {
  run_chaos({0xc4a05eed, 0.01, 1, 6});
  run_chaos({3735928559, 0.05, 4, 3});
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

// ---------------------------------------------------------------------
// Faults inside the fronts (runtime/front.h): the vector-OT round trips
// every served stage opens with, the client's batch first.
// ---------------------------------------------------------------------

// Reads one frame header and payload off `raw` and expects a coded
// kMalformed kError; returns its reason.
std::string expect_malformed_error(TcpChannel& raw) {
  uint8_t type = 0;
  uint32_t len = 0;
  raw.recv_bytes(&type, 1);
  raw.recv_bytes(&len, 4);
  EXPECT_EQ(type, static_cast<uint8_t>(runtime::FrameType::kError));
  if (type != static_cast<uint8_t>(runtime::FrameType::kError) || len < 2)
    return {};
  std::vector<uint8_t> payload(len);
  raw.recv_bytes(payload.data(), len);
  EXPECT_EQ(payload[0], static_cast<uint8_t>(runtime::ErrorCode::kMalformed));
  return std::string(payload.begin() + 1, payload.end());
}

// A raw peer's hello and on-demand kInfer frame.
TcpChannel raw_infer(const runtime::InferenceServer& server,
                     const synth::ServedModel& served) {
  TcpChannel raw = TcpChannel::connect("127.0.0.1", server.port());
  raw.set_recv_timeout_ms(5000);
  runtime::Hello hello;
  hello.fingerprint = runtime::served_fingerprint(served);
  runtime::send_hello(raw, hello);
  EXPECT_EQ(runtime::recv_frame(raw).type, runtime::FrameType::kHelloAck);
  runtime::send_frame(raw, runtime::FrameType::kInfer);
  return raw;
}

// Sends the first half of a front batch of m OTs (the batch size and
// half of the packed u columns), then hangs up the sending side.
void send_half_front_batch(TcpChannel& raw, size_t m) {
  raw.send_u64(m);
  const std::vector<uint8_t> half(kOtExtKappa * ((m + 7) / 8) / 2, 0x5a);
  raw.send_bytes(half.data(), half.size());
  ASSERT_EQ(::shutdown(raw.fd(), SHUT_WR), 0);
}

// After a raw peer's fault: a real client still gets the right answer,
// and the server counts only that inference.
void expect_server_keeps_serving(runtime::InferenceServer& server,
                                 const synth::ModelSpec& spec,
                                 const BitVec& weights, const BitVec& data) {
  runtime::InferenceClient client("127.0.0.1", server.port(), spec);
  EXPECT_EQ(from_bits(client.infer_bits(data)),
            plaintext_label(spec, weights, data));
  client.close();
  server.stop();
  EXPECT_EQ(server.inferences_served(), 1u);
}

// A peer that stops halfway through its layer-0 front batch and hangs
// up its sending side gets a coded kError naming the failure, not a
// silent drop; the server keeps serving.
TEST(ServerResilience, TruncatedFrontReplyEndsInCodedError) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(79);
  const BitVec weights = random_weights(spec, rng);
  runtime::InferenceServer server(spec, weights);
  server.start();
  const synth::ServedModel served = synth::compile_served(spec);
  {
    TcpChannel raw = raw_infer(server, served);
    // The session's OT setup (an empty label batch runs only that),
    // then half of the front's batch.
    GarblerSession session(raw, Block{79, 1});
    session.send_fixed_labels({}, Block{0, 1});
    send_half_front_batch(raw, served.stages[0].front.ots());
    EXPECT_FALSE(expect_malformed_error(raw).empty());
  }
  expect_server_keeps_serving(server, spec, weights, random_sample(rng));
}

// The same for a hidden front: the peer runs stage 0 in full (layer-0
// front and its garbled segment, which ends in XOR shares), then stops
// halfway through its batch for the next stage's front and hangs up its
// sending side. The server answers with a coded kError and keeps
// serving.
TEST(ServerResilience, TruncatedHiddenFrontReplyEndsInCodedError) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(97);
  const BitVec weights = random_weights(spec, rng);
  runtime::InferenceServer server(spec, weights);
  server.start();
  synth::ServedModel served = synth::compile_served(spec);
  ASSERT_EQ(served.stages.size(), 2u);
  const BitVec data = random_sample(rng);
  {
    TcpChannel raw = raw_infer(server, served);
    GcOptions opt;
    opt.framed_tables = true;
    GarblerSession session(raw, Block{97, 1}, opt);
    const BitVec share =
        runtime::front_send(session, served.stages[0].front, data);
    (void)session.run_stage(walk_chain(std::move(served.stages[0].chain)),
                            share);
    send_half_front_batch(raw, served.stages[1].front.ots());
    EXPECT_FALSE(expect_malformed_error(raw).empty());
  }
  expect_server_keeps_serving(server, spec, weights, data);
}

// A front batch whose OT count is not the layer's inputs x n is refused
// as soon as the count arrives: the server sizes nothing from it (a
// count of 2^40 would otherwise ask for 2^44 column bytes) and answers
// with a coded kError naming the mismatch; it keeps serving.
TEST(ServerResilience, FrontBatchOfWrongSizeEndsInCodedError) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(103);
  const BitVec weights = random_weights(spec, rng);
  runtime::InferenceServer server(spec, weights);
  server.start();
  const synth::ServedModel served = synth::compile_served(spec);
  const size_t m = served.stages[0].front.ots();
  for (const uint64_t count : {uint64_t{m + 8}, uint64_t{1} << 40}) {
    TcpChannel raw = raw_infer(server, served);
    GarblerSession session(raw, Block{103, count});
    session.send_fixed_labels({}, Block{0, 1});
    raw.send_u64(count);
    const std::string reason = expect_malformed_error(raw);
    EXPECT_NE(reason.find("batch size mismatch"), std::string::npos)
        << "count " << count << ": " << reason;
  }
  expect_server_keeps_serving(server, spec, weights, random_sample(rng));
}

// Loopback relay between a client and the server. Connection 0 is cut
// in the middle of the client's front reply — the bytes right after its
// on-demand kInfer frame — by closing both sides; later connections
// relay untouched.
class FrontCutRelay {
 public:
  FrontCutRelay(uint16_t server_port, size_t cut_after)
      : server_port_(server_port), cut_after_(cut_after) {
    accept_ = std::thread([this] {
      for (size_t conn = 0;; ++conn) {
        int client_fd = -1, server_fd = -1;
        try {
          TcpChannel c = listener_.accept();
          TcpChannel s = TcpChannel::connect("127.0.0.1", server_port_);
          client_fd = blocking_dup(c.fd());
          server_fd = blocking_dup(s.fd());
        } catch (const std::exception&) {
          return;  // listener closed
        }
        fds_.push_back(client_fd);
        fds_.push_back(server_fd);
        const bool cut = conn == 0;
        pumps_.emplace_back([=, this] { pump(client_fd, server_fd, cut); });
        pumps_.emplace_back([=, this] { pump(server_fd, client_fd, false); });
      }
    });
  }
  ~FrontCutRelay() {
    listener_.close();
    accept_.join();
    for (int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (auto& t : pumps_) t.join();
    for (int fd : fds_) ::close(fd);
  }
  uint16_t port() const { return listener_.port(); }
  bool cut() const { return cut_done_.load(); }

 private:
  static int blocking_dup(int fd) {
    const int d = ::dup(fd);
    ::fcntl(d, F_SETFL, ::fcntl(d, F_GETFL) & ~O_NONBLOCK);
    return d;
  }

  // Copies `from` -> `to` until either side closes. With `cut`, watches
  // for the on-demand kInfer frame [3][0 0 0 0] and closes both sockets
  // `cut_after_` bytes past it.
  void pump(int from, int to, bool cut) {
    static constexpr uint8_t kInfer[5] = {3, 0, 0, 0, 0};
    size_t matched = 0, after = 0;
    uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(from, buf, sizeof(buf), 0);
      if (n <= 0) break;
      size_t fwd = static_cast<size_t>(n);
      bool stop = false;
      for (size_t i = 0; cut && i < static_cast<size_t>(n); ++i) {
        if (matched < sizeof(kInfer)) {
          matched = buf[i] == kInfer[matched] ? matched + 1
                                              : (buf[i] == kInfer[0] ? 1 : 0);
        } else if (++after == cut_after_) {
          fwd = i + 1;
          stop = true;
          break;
        }
      }
      if (::send(to, buf, fwd, MSG_NOSIGNAL) < 0) break;
      if (stop) {
        cut_done_ = true;
        ::shutdown(from, SHUT_RDWR);
        ::shutdown(to, SHUT_RDWR);
        return;
      }
    }
    ::shutdown(to, SHUT_WR);
  }

  uint16_t server_port_;
  size_t cut_after_;
  TcpListener listener_{0};
  std::atomic<bool> cut_done_{false};
  std::vector<int> fds_;  // the accept thread's until it is joined
  std::vector<std::thread> pumps_;
  std::thread accept_;
};

// Client -> server bytes of a fresh session's OT setup: the base OTs
// and the reverse extension's bootstrap batch.
uint64_t setup_client_bytes() {
  uint64_t sent = 0;
  run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, Block{1, 2});
        session.send_fixed_labels({}, Block{0, 1});
        sent = ch.bytes_sent();
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch);
        session.recv_fixed_labels({});
      });
  return sent;
}

// Client -> server bytes of a front batch's size and the first half of
// its u columns.
uint64_t half_front_batch(const synth::FrontPlan& plan) {
  return 8 + kOtExtKappa * ((plan.ots() + 7) / 8) / 2;
}

// The connection dies in the middle of the front: both parties see it,
// the client rebuilds its session (reconnect, handshake, fresh OT
// setup) and the retried inference answers correctly.
TEST(ServerResilience, ClientRecoversFromConnectionLossMidFront) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(83);
  const BitVec weights = random_weights(spec, rng);
  runtime::InferenceServer server(spec, weights);
  server.start();
  const synth::ServedModel served = synth::compile_served(spec);
  FrontCutRelay relay(server.port(),
                      setup_client_bytes() +
                          half_front_batch(served.stages[0].front));

  runtime::ClientConfig ccfg;
  ccfg.seed = Block{8383, 5};
  ccfg.max_retries = 5;
  ccfg.backoff_base_ms = 1;
  runtime::InferenceClient client("127.0.0.1", relay.port(), spec, ccfg);
  const BitVec data = random_sample(rng);
  EXPECT_EQ(from_bits(client.infer_bits(data)),
            plaintext_label(spec, weights, data));
  EXPECT_TRUE(relay.cut());
  EXPECT_EQ(client.sessions_recovered(), 1u);
  EXPECT_GE(client.retries(), 1u);
  client.close();
  server.stop();
  EXPECT_EQ(server.inferences_served(), 1u);
}

// Client -> server bytes of an on-demand inference's stage 0 on a fresh
// session: the OT setup, the layer-0 front's batch, and the stage's
// garbling (label OT replies, share-bit labels, framed tables).
uint64_t stage0_client_bytes(const synth::ModelSpec& spec,
                             const BitVec& weights, const BitVec& data) {
  const synth::ServedModel served = synth::compile_served(spec);
  const synth::ServedStage& stage = served.stages[0];
  const std::vector<Circuit> chain = walk_chain(stage.chain);
  GcOptions opt;
  opt.framed_tables = true;
  uint64_t sent = 0;
  run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, Block{1, 2}, opt);
        (void)session.run_stage(
            chain, runtime::front_send(session, stage.front, data));
        sent = ch.bytes_sent();
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch, opt);
        const std::vector<int64_t> w = runtime::decode_fixed(
            weights, stage.front.weights, spec.fmt);
        (void)session.run_stage(
            chain, runtime::front_recv(session, stage.front, w, {}));
      });
  return sent;
}

// The connection dies between stages, halfway through the client's
// batch for stage 1's front: stage 0 ran in full and its outputs sit
// in XOR shares on both sides. The client rebuilds its session and the
// retried inference answers correctly.
TEST(ServerResilience, ClientRecoversFromConnectionLossMidHiddenFront) {
  const synth::ModelSpec spec = small_spec();
  Rng rng(101);
  const BitVec weights = random_weights(spec, rng);
  const BitVec data = random_sample(rng);
  runtime::InferenceServer server(spec, weights);
  server.start();
  const synth::ServedModel served = synth::compile_served(spec);
  FrontCutRelay relay(server.port(),
                      stage0_client_bytes(spec, weights, data) +
                          half_front_batch(served.stages[1].front));

  runtime::ClientConfig ccfg;
  ccfg.seed = Block{10101, 5};
  ccfg.max_retries = 5;
  ccfg.backoff_base_ms = 1;
  runtime::InferenceClient client("127.0.0.1", relay.port(), spec, ccfg);
  EXPECT_EQ(from_bits(client.infer_bits(data)),
            plaintext_label(spec, weights, data));
  EXPECT_TRUE(relay.cut());
  EXPECT_EQ(client.sessions_recovered(), 1u);
  client.close();
  server.stop();
  EXPECT_EQ(server.inferences_served(), 1u);
}

}  // namespace
}  // namespace deepsecure
