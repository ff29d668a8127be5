#include <gtest/gtest.h>

#include <string>

#include "gc/ot.h"
#include "gc/protocol.h"
#include "net/party.h"
#include "support/rng.h"

namespace deepsecure {
namespace {

TEST(BaseOt, TransfersChosenMessage) {
  Rng rng(1);
  const size_t n = 8;
  std::vector<std::pair<Block, Block>> msgs(n);
  BitVec choices(n);
  for (size_t i = 0; i < n; ++i) {
    msgs[i] = {Block{rng.next_u64(), rng.next_u64()},
               Block{rng.next_u64(), rng.next_u64()}};
    choices[i] = rng.next_bool();
  }

  std::vector<Block> received;
  run_two_party(
      [&](Channel& ch) {
        Prg prg(Block{11, 0});
        base_ot_send(ch, msgs, prg);
      },
      [&](Channel& ch) {
        Prg prg(Block{22, 0});
        received = base_ot_recv(ch, choices, prg);
      });

  ASSERT_EQ(received.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const Block want = choices[i] ? msgs[i].second : msgs[i].first;
    EXPECT_EQ(received[i], want) << "i=" << i;
    // And the unchosen message must differ (sanity that we didn't get both).
    const Block other = choices[i] ? msgs[i].first : msgs[i].second;
    EXPECT_NE(received[i], other);
  }
}

// Bit-loop oracle for transpose_columns: row j's bit i is column i's
// bit j.
std::vector<Block> transpose_oracle(const std::vector<uint8_t>& cols,
                                    size_t stride, size_t m) {
  std::vector<Block> rows(m);
  for (size_t i = 0; i < kOtExtKappa; ++i)
    for (size_t j = 0; j < m; ++j) {
      if (((cols[i * stride + j / 8] >> (j % 8)) & 1u) == 0) continue;
      if (i < 64)
        rows[j].lo |= 1ull << i;
      else
        rows[j].hi |= 1ull << (i - 64);
    }
  return rows;
}

TEST(OtTranspose, MatchesBitLoopOracle) {
  Rng rng(2);
  for (const size_t m : {size_t{1}, size_t{7}, size_t{8}, size_t{127},
                         size_t{128}, size_t{129}, size_t{1000},
                         size_t{89392}}) {
    // Packed columns as on the wire, and with a wider stride.
    for (const size_t stride : {(m + 7) / 8, (m + 7) / 8 + 3}) {
      std::vector<uint8_t> cols(kOtExtKappa * stride);
      for (auto& b : cols) b = static_cast<uint8_t>(rng.next_u64());
      EXPECT_EQ(transpose_columns(cols.data(), stride, m),
                transpose_oracle(cols, stride, m))
          << "m=" << m << " stride=" << stride;
    }
  }
}

// Several batches on one setup: every label is L0 ^ b*delta, L0 has lsb
// 0, and so lsb(label) = b — the convention one-row ANDs read.
TEST(OtExtension, CorrelatedLabelsAcrossBatches) {
  Rng rng(3);
  Block delta{rng.next_u64(), rng.next_u64()};
  delta.lo |= 1;
  const std::vector<size_t> sizes = {1, 129, 1000, 37, 4096, 1023, 1024, 1025};
  std::vector<BitVec> choices;
  for (const size_t m : sizes) {
    choices.emplace_back(m);
    for (auto& b : choices.back()) b = rng.next_bool() ? 1 : 0;
  }

  std::vector<std::vector<Block>> zeros, got;
  run_two_party(
      [&](Channel& ch) {
        Prg prg(Block{33, 0});
        OtExtSender sender(ch);
        sender.setup(prg);
        for (const size_t m : sizes)
          zeros.push_back(sender.send_correlated(m, delta));
      },
      [&](Channel& ch) {
        Prg prg(Block{44, 0});
        OtExtReceiver receiver(ch);
        receiver.setup(prg);
        for (const BitVec& c : choices)
          got.push_back(receiver.recv_correlated(c));
      });

  ASSERT_EQ(got.size(), sizes.size());
  for (size_t b = 0; b < sizes.size(); ++b) {
    ASSERT_EQ(zeros[b].size(), sizes[b]);
    ASSERT_EQ(got[b].size(), sizes[b]);
    for (size_t j = 0; j < sizes[b]; ++j) {
      const bool bit = choices[b][j] != 0;
      EXPECT_FALSE(zeros[b][j].lsb()) << "batch " << b << " j=" << j;
      EXPECT_EQ(got[b][j], bit ? (zeros[b][j] ^ delta) : zeros[b][j])
          << "batch " << b << " j=" << j;
      EXPECT_EQ(got[b][j].lsb(), bit);
    }
  }
  // Fresh labels per OT, and per batch.
  EXPECT_NE(zeros[1][0], zeros[1][1]);
  EXPECT_NE(zeros[1][0], zeros[2][0]);
}

// Exact wire cost of one batch after setup: the receiver ships the
// batch size and 128 packed columns, the sender one block per OT.
TEST(OtExtension, ExactWireBytesPerBatch) {
  const Block delta{0x1234, 0x5678 | 1};
  for (const size_t m : {size_t{1}, size_t{8}, size_t{129}, size_t{1000}}) {
    uint64_t sender_bytes = 0, receiver_bytes = 0;
    run_two_party(
        [&](Channel& ch) {
          Prg prg(Block{55, m});
          OtExtSender sender(ch);
          sender.setup(prg);
          const uint64_t b0 = ch.bytes_sent();
          sender.send_correlated(m, delta);
          sender_bytes = ch.bytes_sent() - b0;
        },
        [&](Channel& ch) {
          Prg prg(Block{66, m});
          OtExtReceiver receiver(ch);
          receiver.setup(prg);
          const uint64_t b0 = ch.bytes_sent();
          receiver.recv_correlated(BitVec(m, 1));
          receiver_bytes = ch.bytes_sent() - b0;
        });
    EXPECT_EQ(receiver_bytes, 8 + kOtExtKappa * ((m + 7) / 8)) << "m=" << m;
    EXPECT_EQ(sender_bytes, 16 * m) << "m=" << m;
  }
}

TEST(OtExtension, UnreadyThrows) {
  auto pair = make_channel_pair();
  OtExtSender sender(*pair.a);
  EXPECT_THROW(sender.send_correlated(1, Block{0, 1}), std::logic_error);
  EXPECT_THROW(sender.send_vector({0, 1}, {1}), std::logic_error);
  OtExtReceiver receiver(*pair.b);
  EXPECT_THROW(receiver.recv_correlated({1}), std::logic_error);
  EXPECT_THROW(receiver.recv_vector({1}, {0, 1}), std::logic_error);
}

// ---------------------------------------------------------------------
// Vector arithmetic OT (Gilboa's OT multiplication, one vector of
// correlations per OT): the receiver learns pad + b_j*delta mod 2^32 on
// every word of OT j. Several batches on one setup, interleaved with
// label batches, so both kinds share the column PRGs and tweak counter.

// Offsets of OTs with the given word counts.
std::vector<uint32_t> offsets_of(const std::vector<uint32_t>& widths) {
  std::vector<uint32_t> offset = {0};
  for (const uint32_t w : widths) offset.push_back(offset.back() + w);
  return offset;
}

struct VectorBatch {
  std::vector<uint32_t> offset, delta;
  BitVec choices;
};

// m OTs of 0 to 9 words each (empty OTs, one hash and a partial one).
VectorBatch random_batch(size_t m, Rng& rng) {
  std::vector<uint32_t> widths(m);
  for (uint32_t& w : widths) w = static_cast<uint32_t>(rng.next_below(10));
  VectorBatch b;
  b.offset = offsets_of(widths);
  b.delta.resize(b.offset.back());
  for (uint32_t& d : b.delta) d = static_cast<uint32_t>(rng.next_u64());
  b.choices.resize(m);
  for (auto& c : b.choices) c = rng.next_bool() ? 1 : 0;
  return b;
}

void expect_pad_plus_choice(const VectorBatch& b,
                            const std::vector<uint32_t>& pads,
                            const std::vector<uint32_t>& got,
                            const std::string& what) {
  ASSERT_EQ(pads.size(), b.delta.size()) << what;
  ASSERT_EQ(got.size(), b.delta.size()) << what;
  for (size_t j = 0; j + 1 < b.offset.size(); ++j)
    for (uint32_t w = b.offset[j]; w < b.offset[j + 1]; ++w)
      EXPECT_EQ(got[w], pads[w] + (b.choices[j] ? b.delta[w] : 0u))
          << what << " j=" << j << " word " << w;
}

TEST(OtVector, PadPlusChoiceTimesDeltaInterleavedWithLabels) {
  Rng rng(7);
  Block label_delta{rng.next_u64(), rng.next_u64()};
  label_delta.lo |= 1;
  std::vector<VectorBatch> batches;
  for (const size_t m : {1, 16, 1000, 129, 4096})
    batches.push_back(random_batch(m, rng));
  // Edge correlations: 0, 1, and the top of the ring, on one OT of 3.
  batches[1].offset = offsets_of(std::vector<uint32_t>(16, 3));
  batches[1].delta.assign(48, 5);
  batches[1].delta[0] = 0;
  batches[1].delta[1] = 1;
  batches[1].delta[2] = ~uint32_t{0};

  std::vector<std::vector<uint32_t>> pads, got;
  std::vector<Block> zeros, labels;
  const BitVec label_choices = {1, 0, 1, 1, 0};
  run_two_party(
      [&](Channel& ch) {
        Prg prg(Block{77, 0});
        OtExtSender sender(ch);
        sender.setup(prg);
        for (size_t b = 0; b < batches.size(); ++b) {
          pads.push_back(
              sender.send_vector(batches[b].offset, batches[b].delta));
          if (b == 2) zeros = sender.send_correlated(5, label_delta);
        }
      },
      [&](Channel& ch) {
        Prg prg(Block{88, 0});
        OtExtReceiver receiver(ch);
        receiver.setup(prg);
        for (size_t b = 0; b < batches.size(); ++b) {
          got.push_back(
              receiver.recv_vector(batches[b].choices, batches[b].offset));
          if (b == 2) labels = receiver.recv_correlated(label_choices);
        }
      });

  ASSERT_EQ(got.size(), batches.size());
  for (size_t b = 0; b < batches.size(); ++b)
    expect_pad_plus_choice(batches[b], pads[b], got[b],
                           "batch " + std::to_string(b));
  for (size_t j = 0; j < label_choices.size(); ++j)
    EXPECT_EQ(labels[j], label_choices[j] ? zeros[j] ^ label_delta : zeros[j]);
  // Fresh pads per word, per OT and per batch.
  EXPECT_NE(pads[1][0], pads[1][1]);
  EXPECT_NE(pads[1][0], pads[1][3]);
  EXPECT_NE(pads[1][0], pads[3][0]);
}

// Exact wire cost of one vector batch: the receiver's batch size and
// packed columns as for labels, then 4 B per word from the sender. The
// receiver counts the batch once in gc.ot.transfers / gc.ot.bytes.
TEST(OtVector, ExactWireBytesPerBatch) {
  Rng rng(8);
  for (const size_t m : {size_t{1}, size_t{16}, size_t{129}, size_t{4928}}) {
    const VectorBatch batch = random_batch(m, rng);
    const uint64_t words = batch.delta.size();
    uint64_t sender_bytes = 0, receiver_bytes = 0, transfers = 0, bytes = 0;
    run_two_party(
        [&](Channel& ch) {
          Prg prg(Block{55, m});
          OtExtSender sender(ch);
          sender.setup(prg);
          const uint64_t b0 = ch.bytes_sent();
          sender.send_vector(batch.offset, batch.delta);
          sender_bytes = ch.bytes_sent() - b0;
        },
        [&](Channel& ch) {
          Prg prg(Block{66, m});
          OtExtReceiver receiver(ch);
          receiver.setup(prg);
          const uint64_t b0 = ch.bytes_sent();
          const uint64_t t0 = otstat::transfers().value();
          const uint64_t c0 = otstat::bytes().value();
          receiver.recv_vector(batch.choices, batch.offset);
          receiver_bytes = ch.bytes_sent() - b0;
          transfers = otstat::transfers().value() - t0;
          bytes = otstat::bytes().value() - c0;
        });
    EXPECT_EQ(receiver_bytes, 8 + kOtExtKappa * ((m + 7) / 8)) << "m=" << m;
    EXPECT_EQ(sender_bytes, 4 * words) << "m=" << m;
    EXPECT_EQ(transfers, m);
    EXPECT_EQ(bytes, receiver_bytes + sender_bytes);
    EXPECT_EQ(bytes, vector_ot_bytes(m, words));
  }
}

// A receiver whose batch has another OT count than the sender's is
// refused by the batch-size guard, before the sender reads a column.
TEST(OtVector, BatchSizeMismatchRejected) {
  std::string sender_error;
  EXPECT_THROW(
      run_two_party(
          [&](Channel& ch) {
            Prg prg(Block{1, 1});
            OtExtSender sender(ch);
            sender.setup(prg);
            try {
              sender.send_vector({0, 1, 2}, {7, 7});
            } catch (const std::runtime_error& e) {
              sender_error = e.what();
              throw;
            }
          },
          [&](Channel& ch) {
            Prg prg(Block{2, 2});
            OtExtReceiver receiver(ch);
            receiver.setup(prg);
            receiver.recv_vector(BitVec(3, 1), {0, 1, 2, 3});
          }),
      std::exception);
  EXPECT_NE(sender_error.find("batch size mismatch"), std::string::npos)
      << sender_error;
}

// The reverse extension (the forward receiver sends): set up from 128
// forward correlated OTs with no base OT, 4,104 bytes, then correct
// labels and vector OTs the other way. Its seeds are not the forward
// extension's: the two extensions' pads differ for the same batch.
TEST(OtReverse, SetupFromForwardCorrelatedOts) {
  Rng rng(9);
  const VectorBatch batch = random_batch(300, rng);
  Block delta{rng.next_u64(), rng.next_u64()};
  delta.lo |= 1;
  const BitVec label_choices = {0, 1, 1};
  std::vector<uint32_t> pads, got, forward_pads;
  std::vector<Block> zeros, labels;
  uint64_t setup_bytes = 0;
  run_two_party(
      [&](Channel& ch) {  // forward sender = reverse receiver
        Prg prg(Block{10, 0});
        OtExtSender forward(ch);
        forward.setup(prg);
        OtExtReceiver reverse(ch);
        const uint64_t b0 = ch.bytes_sent() + ch.bytes_received();
        reverse.setup_reverse(forward, prg);
        setup_bytes = ch.bytes_sent() + ch.bytes_received() - b0;
        got = reverse.recv_vector(batch.choices, batch.offset);
        labels = reverse.recv_correlated(label_choices);
        forward_pads = forward.send_vector(batch.offset, batch.delta);
      },
      [&](Channel& ch) {  // forward receiver = reverse sender
        Prg prg(Block{20, 0});
        OtExtReceiver forward(ch);
        forward.setup(prg);
        OtExtSender reverse(ch);
        reverse.setup_reverse(forward, prg);
        pads = reverse.send_vector(batch.offset, batch.delta);
        zeros = reverse.send_correlated(label_choices.size(), delta);
        forward.recv_vector(batch.choices, batch.offset);
      });
  EXPECT_EQ(setup_bytes, 8 + kOtExtKappa * 16 + kOtExtKappa * 16);
  expect_pad_plus_choice(batch, pads, got, "reverse");
  for (size_t j = 0; j < label_choices.size(); ++j)
    EXPECT_EQ(labels[j], label_choices[j] ? zeros[j] ^ delta : zeros[j]);
  EXPECT_NE(pads, forward_pads);
}

// ---------------------------------------------------------------------
// Labels fixed before the OT (a pooled artifact's evaluator zeros): the
// same correlated OT under the artifact's delta, plus one relabel block
// per bit.

TEST(OtFixedLabels, DeliversArtifactLabels) {
  Rng rng(6);
  const size_t m = 150;
  Block delta{rng.next_u64(), rng.next_u64()};
  delta.lo |= 1;
  Labels zeros(m);
  BitVec choices(m);
  for (size_t i = 0; i < m; ++i) {
    zeros[i] = Block{rng.next_u64() & ~uint64_t{1}, rng.next_u64()};
    choices[i] = rng.next_bool() ? 1 : 0;
  }

  Labels got;
  uint64_t sent = 0, transfers = 0, bytes = 0;
  run_two_party(
      [&](Channel& ch) {
        GarblerSession session(ch, Block{123, 0});
        session.send_fixed_labels({}, delta);  // pays the base-OT setup
        const uint64_t b0 = ch.bytes_sent();
        session.send_fixed_labels(zeros, delta);
        sent = ch.bytes_sent() - b0;
      },
      [&](Channel& ch) {
        EvaluatorSession session(ch);
        session.recv_fixed_labels({});
        const uint64_t t0 = otstat::transfers().value();
        const uint64_t b0 = otstat::bytes().value();
        got = session.recv_fixed_labels(choices);
        transfers = otstat::transfers().value() - t0;
        bytes = otstat::bytes().value() - b0;
      });

  for (size_t i = 0; i < m; ++i)
    EXPECT_EQ(got[i], choices[i] ? (zeros[i] ^ delta) : zeros[i]);
  EXPECT_EQ(sent, 32 * m);  // c_j and a relabel block per bit
  // The receiver counts the batch once, both directions and relabels.
  EXPECT_EQ(transfers, m);
  EXPECT_EQ(bytes, 8 + kOtExtKappa * ((m + 7) / 8) + 32 * m);
}

// An artifact whose label count disagrees with the evaluator's choice
// bits is refused by the OT's batch-size guard before any label moves.
TEST(OtFixedLabels, RelabelCountMismatchRejected) {
  std::string sender_error;
  EXPECT_THROW(
      run_two_party(
          [&](Channel& ch) {
            GarblerSession session(ch, Block{9, 9});
            try {
              session.send_fixed_labels(Labels(6), Block{0, 1});
            } catch (const std::runtime_error& e) {
              sender_error = e.what();
              throw;
            }
          },
          [&](Channel& ch) {
            EvaluatorSession session(ch);
            session.recv_fixed_labels(BitVec(4, 1));
          }),
      std::exception);
  EXPECT_NE(sender_error.find("batch size mismatch"), std::string::npos)
      << sender_error;
}

}  // namespace
}  // namespace deepsecure
