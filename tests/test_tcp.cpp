// The TCP transport carries the identical protocol bytes as the
// in-memory channel: run real secure inference over a loopback socket.
// Also drives the nonblocking send loop through short writes and its
// POLLOUT deadline.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gc/protocol.h"
#include "net/tcp_channel.h"
#include "obs/metrics.h"
#include "synth/layer_circuits.h"
#include "test_util.h"

namespace deepsecure {
namespace {

using test::pack_fixed;
using test::random_fixed;

// A loopback pair whose first channel is nonblocking with a tiny
// SO_SNDBUF, so a large send backs up and must resume short writes.
struct TinySndbufPair {
  TcpChannel sender;
  TcpChannel receiver;
};

TinySndbufPair tiny_sndbuf_pair() {
  TcpListener listener(0);
  std::optional<TcpChannel> receiver;
  std::thread acceptor([&] { receiver.emplace(listener.accept()); });
  TcpChannel sender = TcpChannel::connect("127.0.0.1", listener.port());
  acceptor.join();
  int sndbuf = 4096;  // kernel doubles this; still far below the payload
  EXPECT_EQ(setsockopt(sender.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                       sizeof(sndbuf)),
            0);
  sender.set_nonblocking(true);
  return {std::move(sender), std::move(*receiver)};
}

std::vector<uint8_t> random_bytes(Rng& rng, size_t n) {
  std::vector<uint8_t> b(n);
  for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
  return b;
}

// Reads `total` bytes in 8 KiB steps, staying slower than the sender so
// its socket buffer backs up.
std::vector<uint8_t> read_slowly(TcpChannel& ch, size_t total) {
  std::vector<uint8_t> received(total);
  for (size_t off = 0; off < total;) {
    const size_t n = std::min<size_t>(8192, total - off);
    ch.recv_bytes(received.data() + off, n);
    off += n;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return received;
}

TEST(TcpChannel, ByteRoundTrip) {
  uint16_t port = 0;
  std::unique_ptr<TcpChannel> server;
  std::thread accept_thread([&] {
    // listen_and_accept fills the port before blocking in accept, but we
    // still need the client to start after bind; use port handshake via
    // promise-free retry on the client side.
  });
  accept_thread.join();

  // Start server and client concurrently; connect() retries until the
  // listener is up.
  uint16_t chosen = 0;
  std::thread srv([&] {
    TcpChannel ch = TcpChannel::listen_and_accept(24567, &chosen);
    uint64_t v = ch.recv_u64();
    ch.send_u64(v + 1);
    const BitVec bits = ch.recv_bits();
    ch.send_bits(bits);
  });
  TcpChannel cli = TcpChannel::connect("127.0.0.1", 24567);
  cli.send_u64(41);
  EXPECT_EQ(cli.recv_u64(), 42u);
  const BitVec sent{1, 0, 1, 1, 0, 1, 0, 0, 1};
  cli.send_bits(sent);
  EXPECT_EQ(cli.recv_bits(), sent);
  srv.join();
  EXPECT_GT(cli.bytes_sent(), 8u);
  EXPECT_GT(cli.bytes_received(), 8u);
}

TEST(TcpChannel, SecureInferenceOverLoopback) {
  // Full protocol (OT + garbling + chained layers) across a real socket.
  synth::ModelSpec spec;
  spec.input = synth::Shape3{1, 1, 5};
  spec.layers.push_back(synth::FcLayer{4, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  const auto chain = synth::compile_model_layers(spec);

  Rng rng(9);
  std::vector<Fixed> x, w;
  for (size_t i = 0; i < 5; ++i) x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i)
    w.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  const BitVec data = pack_fixed(x), weights = pack_fixed(w);

  const Circuit mono = synth::compile_model(spec);
  const BitVec expect = mono.eval(data, weights);

  BitVec client_out, server_out;
  std::thread server_thread([&] {
    TcpChannel ch = TcpChannel::listen_and_accept(24568);
    EvaluatorSession session(ch);
    server_out = session.run_chain(chain, weights);
  });
  {
    TcpChannel ch = TcpChannel::connect("127.0.0.1", 24568);
    GarblerSession session(ch, Block{2024, 610});
    client_out = session.run_chain(chain, data);
  }
  server_thread.join();
  EXPECT_EQ(client_out, expect);
  EXPECT_EQ(server_out, expect);
}

TEST(TcpChannel, StreamingSamplesReuseOtSetup) {
  // One session, several inferences: the base-OT cost amortizes (the
  // Figure 6 streaming premise) — only the first run pays setup.
  synth::ModelSpec spec;
  spec.input = synth::Shape3{1, 1, 4};
  spec.layers.push_back(synth::FcLayer{2, {}, true});
  spec.layers.push_back(synth::ArgmaxLayer{});
  const auto chain = synth::compile_model_layers(spec);

  Rng rng(10);
  std::vector<Fixed> w;
  for (size_t i = 0; i < synth::model_weight_count(spec); ++i)
    w.push_back(random_fixed(rng, kDefaultFormat, 0.2));
  const BitVec weights = pack_fixed(w);
  const Circuit mono = synth::compile_model(spec);

  constexpr int kSamples = 4;
  std::vector<BitVec> datas;
  for (int s = 0; s < kSamples; ++s) {
    std::vector<Fixed> x;
    for (int i = 0; i < 4; ++i) x.push_back(random_fixed(rng, kDefaultFormat, 0.2));
    datas.push_back(pack_fixed(x));
  }

  std::vector<BitVec> client_outs(kSamples);
  double setup_first = 0, setup_later = 0;
  std::thread server_thread([&] {
    TcpChannel ch = TcpChannel::listen_and_accept(24569);
    EvaluatorSession session(ch);
    for (int s = 0; s < kSamples; ++s) session.run_chain(chain, weights);
  });
  {
    TcpChannel ch = TcpChannel::connect("127.0.0.1", 24569);
    GarblerSession session(ch, Block{11, 11});
    for (int s = 0; s < kSamples; ++s) {
      client_outs[s] = session.run_chain(chain, datas[s]);
      if (s == 0) setup_first = session.trace().setup_s;
    }
    setup_later = session.trace().setup_s;
  }
  server_thread.join();

  for (int s = 0; s < kSamples; ++s)
    EXPECT_EQ(client_outs[s], mono.eval(datas[s], weights)) << "sample " << s;
  EXPECT_GT(setup_first, 0.0);
  EXPECT_EQ(setup_first, setup_later);  // setup ran exactly once
}

TEST(TcpChannel, NonblockingSendsResumeShortWritesThroughTinySndbuf) {
  TinySndbufPair p = tiny_sndbuf_pair();
  const obs::Counter& resumes =
      obs::Registry::global().counter("net.tcp.poll_resumes");
  Rng rng(90210);

  // One ~1 MiB buffer through a tiny send buffer: short writes must
  // resume at the exact byte offset.
  const std::vector<uint8_t> big = random_bytes(rng, (1u << 20) + 4093);
  const uint64_t resumes_before = resumes.value();
  std::vector<uint8_t> received;
  std::thread reader(
      [&] { received = read_slowly(p.receiver, big.size()); });
  p.sender.send_bytes(big.data(), big.size());
  reader.join();
  EXPECT_EQ(received, big)
      << "short writes must resume at the exact byte offset";
  EXPECT_EQ(p.sender.bytes_sent(), big.size());
  EXPECT_GT(resumes.value(), resumes_before)
      << "the send never backed up, so no short write was resumed";
}

TEST(TcpChannel, NonblockingSendToStalledPeerTimesOutAsSend) {
  // The peer never reads: once both socket buffers fill, the sender
  // waits for POLLOUT until the deadline, and the error names the send.
  TinySndbufPair p = tiny_sndbuf_pair();
  p.sender.set_recv_timeout_ms(100);
  const std::vector<uint8_t> payload(16u << 20, 0x5a);
  try {
    p.sender.send_bytes(payload.data(), payload.size());
    FAIL() << "a 16 MB send to a peer that never reads must time out";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("send timed out"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace deepsecure
