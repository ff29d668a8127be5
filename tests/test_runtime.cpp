// Streaming runtime regressions: the framed garbled-table stream must
// reassemble to the exact monolithic byte stream, and the streaming
// sessions must agree with plaintext evaluation end to end.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "circuit/bench_circuits.h"
#include "circuit/builder.h"
#include "gc/block_io.h"
#include "gc/garble.h"
#include "gc/material.h"
#include "net/mem_channel.h"
#include "runtime/frame.h"
#include "runtime/material_pool.h"
#include "runtime/streaming.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"
#include "synth/layer_circuits.h"

namespace deepsecure {
namespace {

// Sink channel recording every byte (garbling only sends).
class RecordChannel : public Channel {
 public:
  void send_bytes(const void* data, size_t n) override {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + n);
  }
  void recv_bytes(void*, size_t) override {
    throw std::logic_error("RecordChannel: recv not supported");
  }
  uint64_t bytes_sent() const override { return bytes.size(); }
  uint64_t bytes_received() const override { return 0; }
  void reset_counters() override { bytes.clear(); }

  std::vector<uint8_t> bytes;
};

std::vector<uint8_t> garble_stream(const Circuit& c, Block seed,
                                   const GcOptions& opt) {
  RecordChannel ch;
  Garbler g(ch, seed, opt);
  const Labels gz = g.fresh_zeros(c.garbler_inputs.size());
  const Labels ez = g.fresh_known_zeros(c.evaluator_inputs.size());
  g.garble(c, gz, ez, {});
  return ch.bytes;
}

// Strip the [u32 len] frame headers from a framed garbling stream. The
// first 32 bytes are the constant labels (sent raw ahead of the table
// stream); everything after is length-prefixed frames.
std::vector<uint8_t> deframe(const std::vector<uint8_t>& stream) {
  constexpr size_t kConsts = 32;
  if (stream.size() < kConsts) throw std::runtime_error("stream too short");
  std::vector<uint8_t> out(stream.begin(), stream.begin() + kConsts);
  size_t at = kConsts;
  while (at < stream.size()) {
    if (at + 4 > stream.size()) throw std::runtime_error("truncated header");
    uint32_t len = 0;
    std::memcpy(&len, stream.data() + at, 4);
    at += 4;
    if (len == 0 || len % 16 != 0 || at + len > stream.size())
      throw std::runtime_error("malformed frame");
    out.insert(out.end(), stream.begin() + static_cast<ptrdiff_t>(at),
               stream.begin() + static_cast<ptrdiff_t>(at + len));
    at += len;
  }
  return out;
}

Circuit random_mixed_circuit(Rng& rng, int n_gates) {
  Builder b;
  std::vector<Wire> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kGarbler));
  for (int i = 0; i < 8; ++i) pool.push_back(b.input(Party::kEvaluator));
  for (int g = 0; g < n_gates; ++g) {
    const Wire a = pool[rng.next_below(pool.size())];
    const Wire y = pool[rng.next_below(pool.size())];
    switch (rng.next_below(4)) {
      case 0: pool.push_back(b.xor_(a, y)); break;
      case 1: pool.push_back(b.and_(a, y)); break;
      case 2: pool.push_back(b.or_(a, y)); break;
      default: pool.push_back(b.not_(a)); break;
    }
  }
  for (int o = 0; o < 10; ++o)
    b.output(pool[pool.size() - 1 - static_cast<size_t>(o)]);
  return b.build();
}

// ---------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, RunsTasksInOrderAndDrainsOnDestruction) {
  std::vector<int> order;
  {
    ThreadPool pool;
    for (int i = 0; i < 100; ++i)
      pool.submit([&order, i] { order.push_back(i); });
  }
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

// ---------------------------------------------------------------------
// Framed table stream

TEST(RuntimeStream, FramesReassembleByteIdenticalSingleThread) {
  GcOptions mono;  // defaults: batched, monolithic
  GcOptions framed;
  framed.framed_tables = true;
  for (const Circuit& c :
       {bench_circuits::wide_and(3 * kGcMaxBatchWindow + 17),
        bench_circuits::and_chain(64)}) {
    const auto plain = garble_stream(c, Block{7, 8}, mono);
    const auto stream = garble_stream(c, Block{7, 8}, framed);
    EXPECT_EQ(deframe(stream), plain) << c.name;
    EXPECT_GT(stream.size(), plain.size());  // headers really exist
  }
}

// Schedule-aware frame sizing: a capacity drain mid-level no longer
// cuts a frame, so one wide AND level whose hash windows drain several
// times ships as ONE length-prefixed frame — with the exact same
// concatenated payload.
TEST(RuntimeStream, WideLevelShipsAsOneFrame) {
  // One dependency level of ANDs spanning four capacity windows.
  const Circuit c = bench_circuits::wide_and(3 * kGcMaxBatchWindow + 17);
  GcOptions framed;
  framed.framed_tables = true;
  const auto stream = garble_stream(c, Block{3, 9}, framed);

  size_t frames = 0;
  size_t at = 32;  // constant labels travel raw ahead of the frames
  while (at < stream.size()) {
    ASSERT_LE(at + 4, stream.size());
    uint32_t len = 0;
    std::memcpy(&len, stream.data() + at, 4);
    at += 4 + len;
    ++frames;
  }
  ASSERT_EQ(at, stream.size());
  EXPECT_EQ(frames, 1u);  // four windows, one level, one frame
  EXPECT_EQ(deframe(stream), garble_stream(c, Block{3, 9}, GcOptions{}));
}

// Regression: a level whose AND count is an EXACT multiple of the
// window capacity drains entirely via capacity flushes, so its level
// boundary arrives on an empty hash window — it must still cut the
// frame, or the level's tables silently merge into the next level's.
TEST(RuntimeStream, ExactMultipleLevelStillCutsFrameAtBoundary) {
  // Level 1: exactly 2*kGcMaxBatchWindow independent ANDs. Level 2: 64
  // ANDs reading level-1 outputs (the dependency boundary).
  Builder b;
  std::vector<Wire> in;
  for (int i = 0; i < 16; ++i) in.push_back(b.input(Party::kGarbler));
  for (int i = 0; i < 16; ++i) in.push_back(b.input(Party::kEvaluator));
  std::vector<Wire> chain{in[0]};
  const size_t n1 = 2 * kGcMaxBatchWindow;
  for (size_t i = 1; i <= n1; ++i)
    chain.push_back(b.xor_(chain.back(), in[i % in.size()]));
  std::vector<Wire> l1;
  for (size_t g = 0; g < n1; ++g)
    l1.push_back(b.and_(chain[g], chain[g + 1]));
  std::vector<Wire> l2;
  for (size_t i = 0; i + 1 < 65; ++i)
    l2.push_back(b.and_(l1[i], l1[i + 1]));
  for (size_t i = 0; i < 8; ++i) b.output(l2[i]);
  const Circuit c = b.build();

  GcOptions framed;
  framed.framed_tables = true;
  const auto stream = garble_stream(c, Block{6, 6}, framed);
  size_t frames = 0;
  size_t at = 32;
  while (at < stream.size()) {
    ASSERT_LE(at + 4, stream.size());
    uint32_t len = 0;
    std::memcpy(&len, stream.data() + at, 4);
    at += 4 + len;
    ++frames;
  }
  ASSERT_EQ(at, stream.size());
  // One frame for level 1 (cut at its boundary), one for level 2's
  // small remainder (shipped by the end-of-circuit flush).
  EXPECT_EQ(frames, 2u);
  EXPECT_EQ(deframe(stream), garble_stream(c, Block{6, 6}, GcOptions{}));
}

TEST(RuntimeStream, FramesReassembleByteIdenticalOnRandomCircuits) {
  GcOptions mono;
  GcOptions framed;
  framed.framed_tables = true;
  Rng rng(515);
  for (int trial = 0; trial < 5; ++trial) {
    const Circuit c = random_mixed_circuit(rng, 600);
    const Block seed{rng.next_u64(), rng.next_u64()};
    EXPECT_EQ(deframe(garble_stream(c, seed, framed)),
              garble_stream(c, seed, mono))
        << "trial " << trial;
  }
}

// A bulk put splits at exactly the capacity boundaries a per-block loop
// hits, so frame cuts do not depend on how the garbler hands rows over.
TEST(RuntimeStream, BulkPutCutsFramesLikePerBlockPuts) {
  std::vector<Block> rows(23);
  for (uint64_t i = 0; i < rows.size(); ++i) rows[i] = Block{i, ~i};
  for (const bool framed : {false, true}) {
    RecordChannel bulk, single;
    {
      BlockWriter w(bulk, 5, framed);
      w.put(rows.data(), 3);
      w.put(rows.data() + 3, 14);  // crosses three capacity boundaries
      w.flush();
      w.put(rows.data() + 17, 6);
    }
    {
      BlockWriter w(single, 5, framed);
      for (size_t i = 0; i < 17; ++i) w.put(rows[i]);
      w.flush();
      for (size_t i = 17; i < 23; ++i) w.put(rows[i]);
    }
    EXPECT_EQ(bulk.bytes, single.bytes) << "framed=" << framed;
    if (!framed) continue;
    std::vector<uint32_t> lens;
    for (size_t at = 0; at < bulk.bytes.size();) {
      ASSERT_LE(at + 4, bulk.bytes.size());
      uint32_t len = 0;
      std::memcpy(&len, bulk.bytes.data() + at, 4);
      lens.push_back(len);
      at += 4 + len;
    }
    EXPECT_EQ(lens, (std::vector<uint32_t>{80, 80, 80, 32, 80, 16}));
  }
}

TEST(RuntimeStream, XorOnlyCircuitProducesNoFrames) {
  // Free-XOR-only netlist: no tables, so the framed stream must contain
  // zero frames (just the constant labels) and still evaluate.
  Builder b;
  const Wire x = b.input(Party::kGarbler);
  const Wire y = b.input(Party::kGarbler);
  b.output(b.xor_(x, y));
  const Circuit c = b.build();

  GcOptions framed;
  framed.framed_tables = true;
  EXPECT_EQ(garble_stream(c, Block{1, 2}, framed).size(), 32u);

  ChannelPair pair = make_channel_pair();
  BitVec decoded;
  std::thread g([&] {
    Garbler gb(*pair.a, Block{1, 2}, framed);
    const Labels gz = gb.fresh_zeros(2);
    gb.send_active(BitVec{1, 1}, gz);
    decoded = gb.decode_outputs(gb.garble(c, gz, {}, {}));
  });
  Evaluator ev(*pair.b, framed);
  const Labels gl = ev.recv_active(2);
  ev.send_outputs(ev.evaluate(c, gl, {}, {}));
  g.join();
  EXPECT_EQ(decoded, BitVec{0});
}

// ---------------------------------------------------------------------
// Streaming sessions end to end (framed vs plaintext)

TEST(RuntimeStream, StreamingSessionsMatchPlaintextChain) {
  std::vector<Circuit> chain;
  for (int l = 0; l < 3; ++l)
    chain.push_back(bench_circuits::wide_chain_layer(512));

  Rng rng(808);
  BitVec data(chain.front().garbler_inputs.size());
  for (auto& b : data) b = rng.next_bool();
  BitVec weights;
  for (const Circuit& c : chain)
    for (size_t i = 0; i < c.evaluator_inputs.size(); ++i)
      weights.push_back(rng.next_bool() ? 1 : 0);

  BitVec expect = data;
  size_t consumed = 0;
  for (const Circuit& c : chain) {
    const size_t n = c.evaluator_inputs.size();
    const BitVec w(weights.begin() + static_cast<ptrdiff_t>(consumed),
                   weights.begin() + static_cast<ptrdiff_t>(consumed + n));
    consumed += n;
    expect = c.eval(expect, w);
  }

  ChannelPair pair = make_channel_pair();
  BitVec got_g, got_e;
  std::thread server([&] {
    runtime::StreamingEvaluator eval(*pair.b);
    got_e = eval.run_chain(chain, weights);
  });
  {
    runtime::StreamingGarbler garbler(*pair.a, Block{31, 62});
    got_g = garbler.run_chain(chain, data);
  }
  server.join();
  EXPECT_EQ(got_g, expect);
  EXPECT_EQ(got_e, expect);
}

// ---------------------------------------------------------------------
// Offline artifacts + MaterialPool

TEST(Material, TablesByteIdenticalToOnDemandStream) {
  // For a single-circuit chain the offline artifact's table stream must
  // be byte-identical to the monolithic on-demand stream from the same
  // seed — the offline split changes *when* garbling runs, not what the
  // evaluator consumes.
  const Circuit c = bench_circuits::wide_and(2 * kGcMaxBatchWindow + 5);
  const Block seed{404, 808};
  const GarbledMaterial mat = garble_offline({c}, seed);
  EXPECT_EQ(mat.tables, garble_stream(c, seed, GcOptions{}));
  EXPECT_EQ(mat.data_zeros.size(), c.garbler_inputs.size());
  EXPECT_EQ(mat.eval_zeros.size(), c.evaluator_inputs.size());
  EXPECT_EQ(mat.decode_bits.size(), c.outputs.size());
  EXPECT_EQ(mat.fingerprint, chain_fingerprint({c}));
}

// The artifact is exactly material_stream_bytes long, and garble_offline
// reserved exactly that (no doubling slack left behind).
TEST(Material, TablesSizeIsMaterialStreamBytes) {
  std::vector<Circuit> chain;
  for (int l = 0; l < 3; ++l)
    chain.push_back(bench_circuits::wide_chain_layer(384 + 128 * l));
  const GarbledMaterial mat = garble_offline(chain, Block{3, 4});
  EXPECT_EQ(mat.tables.size(), material_stream_bytes(chain));
  EXPECT_EQ(mat.tables.capacity(), mat.tables.size());
}

TEST(Material, EvaluateMaterialMatchesPlaintextChain) {
  // Local offline/online round trip with hand-resolved labels (no OT):
  // pick active labels from the artifact's zero labels + delta exactly
  // as the pooled label OTs would, evaluate, compare with plaintext.
  std::vector<Circuit> chain;
  for (int l = 0; l < 3; ++l)
    chain.push_back(bench_circuits::wide_chain_layer(384));

  Rng rng(909);
  BitVec data(chain.front().garbler_inputs.size());
  for (auto& b : data) b = rng.next_bool();
  BitVec weights;
  for (const Circuit& c : chain)
    for (size_t i = 0; i < c.evaluator_inputs.size(); ++i)
      weights.push_back(rng.next_bool() ? 1 : 0);

  BitVec expect = data;
  size_t consumed = 0;
  for (const Circuit& c : chain) {
    const size_t n = c.evaluator_inputs.size();
    const BitVec w(weights.begin() + static_cast<ptrdiff_t>(consumed),
                   weights.begin() + static_cast<ptrdiff_t>(consumed + n));
    consumed += n;
    expect = c.eval(expect, w);
  }

  const GarbledMaterial mat = garble_offline(chain, Block{17, 34});
  EvalMaterial em;
  em.decode_bits = mat.decode_bits;
  em.tables = mat.tables;
  em.eval_labels.resize(mat.eval_zeros.size());
  for (size_t i = 0; i < mat.eval_zeros.size(); ++i)
    em.eval_labels[i] =
        weights[i] ? (mat.eval_zeros[i] ^ mat.delta) : mat.eval_zeros[i];
  Labels g_labels(mat.data_zeros.size());
  for (size_t i = 0; i < mat.data_zeros.size(); ++i)
    g_labels[i] = data[i] ? (mat.data_zeros[i] ^ mat.delta) : mat.data_zeros[i];

  EXPECT_EQ(decode_labels(evaluate_material(chain, em, g_labels), em.decode_bits),
            expect);
}

// A compiled MLP chain garbles its weight-bit ANDs as one-row gates:
// the offline artifact is still exactly material_stream_bytes long (one
// row per such gate) and evaluates to the plaintext chain.
TEST(Material, OneRowArtifactIsStreamSizedAndDecodes) {
  synth::ModelSpec spec;
  spec.input = synth::Shape3{1, 1, 6};
  spec.layers.push_back(synth::FcLayer{4, {}, true});
  spec.layers.push_back(synth::ActLayer{synth::ActKind::kReLU});
  spec.layers.push_back(synth::FcLayer{3, {}, true});
  const std::vector<Circuit> chain = synth::compile_model_layers(spec);
  uint64_t one_row = 0, two_row = 0;
  for (const Circuit& c : chain) {
    one_row += c.stats().num_and_known;
    two_row += c.stats().num_and - c.stats().num_and_known;
  }
  ASSERT_GT(one_row, 0u);
  ASSERT_GT(two_row, 0u);

  Rng rng(4242);
  BitVec data(chain.front().garbler_inputs.size());
  for (auto& b : data) b = rng.next_bool();
  BitVec weights;
  for (const Circuit& c : chain)
    for (size_t i = 0; i < c.evaluator_inputs.size(); ++i)
      weights.push_back(rng.next_bool() ? 1 : 0);
  BitVec expect = data;
  size_t consumed = 0;
  for (const Circuit& c : chain) {
    const size_t n = c.evaluator_inputs.size();
    const BitVec w(weights.begin() + static_cast<ptrdiff_t>(consumed),
                   weights.begin() + static_cast<ptrdiff_t>(consumed + n));
    expect = c.eval(expect, w);
    consumed += n;
  }

  const GarbledMaterial mat = garble_offline(chain, Block{71, 72});
  EXPECT_EQ(mat.tables.size(), material_stream_bytes(chain));
  EXPECT_EQ(mat.tables.size(),
            chain.size() * 2 * sizeof(Block) + (2 * two_row + one_row) * 16);
  EvalMaterial em;
  em.decode_bits = mat.decode_bits;
  em.tables = mat.tables;
  em.eval_labels.resize(mat.eval_zeros.size());
  for (size_t i = 0; i < mat.eval_zeros.size(); ++i)
    em.eval_labels[i] =
        weights[i] ? (mat.eval_zeros[i] ^ mat.delta) : mat.eval_zeros[i];
  Labels g_labels(mat.data_zeros.size());
  for (size_t i = 0; i < mat.data_zeros.size(); ++i)
    g_labels[i] = data[i] ? (mat.data_zeros[i] ^ mat.delta) : mat.data_zeros[i];
  EXPECT_EQ(decode_labels(evaluate_material(chain, em, g_labels), em.decode_bits),
            expect);
}

TEST(MaterialPool, KeepsTargetInstancesReadyAndRefills) {
  std::vector<Circuit> chain{bench_circuits::wide_chain_layer(256)};
  runtime::MaterialPool pool({chain}, GcOptions{},
                             {.target = 2, .seed = Block{7, 7}});

  const GarbledMaterial a = pool.acquire().front();
  const GarbledMaterial b = pool.acquire().front();
  EXPECT_EQ(a.fingerprint, chain_fingerprint(chain));
  // Distinct artifacts: labels must never repeat across instances.
  EXPECT_FALSE(a.delta == b.delta);
  EXPECT_EQ(pool.acquired(), 2u);

  // The pool refills toward its target in the background.
  Stopwatch sw;
  while (pool.ready() < 2 && sw.seconds() < 10.0)
    std::this_thread::yield();
  EXPECT_GE(pool.ready(), 2u);
  EXPECT_GE(pool.produced(), 4u);
}

TEST(MaterialPool, ConcurrentAcquiresAtZeroTarget) {
  // target 0 plans no inventory; every blocked acquire must still get
  // its own ad-hoc production (two waiters once deadlocked on one).
  std::vector<Circuit> chain{bench_circuits::wide_chain_layer(128)};
  runtime::MaterialPool pool({chain}, GcOptions{},
                             {.target = 0, .seed = Block{9, 9}});
  GarbledMaterial a, b;
  std::thread t1([&] { a = pool.acquire().front(); });
  std::thread t2([&] { b = pool.acquire().front(); });
  t1.join();
  t2.join();
  EXPECT_FALSE(a.delta == b.delta);
  EXPECT_EQ(pool.acquired(), 2u);
}

TEST(MaterialPool, TryAcquireReportsDrain) {
  std::vector<Circuit> chain{bench_circuits::wide_chain_layer(4096)};
  runtime::MaterialPool pool({chain}, GcOptions{},
                             {.target = 1, .seed = Block{8, 8}});
  // Drain it, then keep asking: misses are counted, production catches
  // up eventually.
  (void)pool.acquire();
  std::optional<runtime::Artifact> got;
  Stopwatch sw;
  while (!(got = pool.try_acquire()) && sw.seconds() < 10.0)
    std::this_thread::yield();
  EXPECT_TRUE(got.has_value());
  EXPECT_GE(pool.misses() + pool.acquired(), 2u);
}

TEST(MaterialPool, RefillsToTargetAfterAcquiresRacingThePublish) {
  // A producer must publish its artifact and leave the in-flight count
  // in one step: an acquire in between would see the finished producer
  // still counted, skip the refill, and leave the pool one short of
  // target until the next acquire. Drain the pool each round, take the
  // next artifact the moment it is published, and require a full
  // refill.
  std::vector<Circuit> chain{bench_circuits::wide_chain_layer(16)};
  runtime::MaterialPool pool({chain}, GcOptions{},
                             {.target = 2, .seed = Block{6, 6}});
  for (int round = 0; round < 200; ++round) {
    for (int taken = 0; taken < 3; ++taken) {
      Stopwatch sw;
      while (!pool.try_acquire()) ASSERT_LT(sw.seconds(), 10.0);
    }
    Stopwatch sw;
    while (pool.ready() < 2 && sw.seconds() < 5.0) std::this_thread::yield();
    ASSERT_EQ(pool.ready(), 2u) << "round " << round;
  }
}

// ready() counts the standing inventory, and try_acquire hands it out
// instead of reporting a drain.
TEST(MaterialPool, ReadyCountsInventory) {
  std::vector<Circuit> chain{bench_circuits::wide_chain_layer(128)};
  runtime::MaterialPool pool({chain}, GcOptions{},
                             {.target = 2, .seed = Block{1, 2}});
  (void)pool.acquire();
  Stopwatch sw;
  while (pool.ready() < 2 && sw.seconds() < 10.0) std::this_thread::yield();
  EXPECT_EQ(pool.ready(), 2u);
  EXPECT_TRUE(pool.try_acquire().has_value());
}

// ---------------------------------------------------------------------
// Session frames + fingerprint

TEST(RuntimeFrame, RoundTripAndErrorPropagation) {
  ChannelPair pair = make_channel_pair();
  runtime::Hello h;
  h.fingerprint = 0xdeadbeefcafef00dull;
  runtime::send_hello(*pair.a, h);
  const runtime::Hello back = runtime::parse_hello(runtime::recv_frame(*pair.b));
  EXPECT_EQ(back.magic, runtime::kProtocolMagic);
  EXPECT_EQ(back.version, 10u);  // v10: the flipped front, no B2A
  EXPECT_EQ(back.fingerprint, h.fingerprint);
  EXPECT_TRUE(back.flags.framed_tables);

  runtime::send_error(*pair.b, runtime::ErrorCode::kUnspecified, "nope");
  EXPECT_THROW(runtime::recv_frame(*pair.a), std::runtime_error);

  // A coded kError keeps its code on the exception.
  runtime::send_error(*pair.b, runtime::ErrorCode::kHandshake, "mismatch");
  try {
    (void)runtime::recv_frame(*pair.a);
    ADD_FAILURE() << "kError did not throw";
  } catch (const runtime::SessionError& e) {
    EXPECT_EQ(e.code(), runtime::ErrorCode::kHandshake);
    EXPECT_STREQ(e.what(), "runtime: peer error: mismatch");
  }
}

TEST(RuntimeFrame, FingerprintSeparatesChains) {
  const std::vector<Circuit> a{bench_circuits::wide_and(100)};
  const std::vector<Circuit> b{bench_circuits::wide_and(101)};
  const std::vector<Circuit> a2{bench_circuits::wide_and(100)};
  EXPECT_EQ(runtime::chain_fingerprint(a), runtime::chain_fingerprint(a2));
  EXPECT_NE(runtime::chain_fingerprint(a), runtime::chain_fingerprint(b));
}

}  // namespace
}  // namespace deepsecure
