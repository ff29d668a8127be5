// Oblivious transfer (Section 2.2.1): the evaluator's input-wire labels
// are transferred with 1-out-of-2 OT.
//
//  * Base OT: Chou-Orlandi "simplest OT" over Edwards25519 (semi-honest
//    variant). Real elliptic-curve crypto, 128 instances per session.
//  * Extension: IKNP'03 semi-honest OT extension with stateful AES-CTR
//    column PRGs, so one base-OT setup serves any number of label
//    transfers across all layers of a model. Columns stay packed (one
//    bit per OT) and are transposed into rows by an SSE2 tile kernel.
//  * One-block correlated OT (Asharov-Lindell-Schneider-Zohner, CCS
//    2013): the sender does not choose its messages. Its zero label is
//    L0_j = H(q_j) with the lsb cleared, and it ships one block per OT,
//    c_j = L0_j ^ H(q_j ^ s) ^ delta. The receiver takes clr(H(t_j))
//    for b = 0 and H(t_j) ^ c_j for b = 1, i.e. L0_j ^ b*delta. Since
//    lsb(delta) = 1, lsb(label) = b: the lsb convention the one-row ANDs
//    rely on (garble.h) holds without any plaintext side channel.
//
//  * Vector arithmetic OT (Gilboa's OT multiplication with SecureML's
//    vectorization, Mohassel-Zhang S&P 2017): the same rows under their
//    own hash domain carry 32-bit additive correlations, a vector of
//    them per OT. OT j's words come four at a time from one fixed-key
//    hash H(q_j, t) under a fresh tweak t per hash: the sender's pads
//    are the words of H(q_j, t), it ships u = words of H(q_j ^ s, t) -
//    pad - d per word, and the receiver takes the words of H(t_j, t) for
//    b = 0 and those minus u for b = 1, i.e. pad + b*d (mod 2^32). The
//    served linear layers' products x*w are shared this way
//    (runtime/front.h): one OT per input bit, one word per product that
//    uses the bit.
//
// Wire per batch of m OTs: receiver -> sender 8 + 128*ceil(m/8) bytes
// (batch size, then the packed u columns); sender -> receiver 16*m
// (correlated) or 4 B per word (vector arithmetic). All batches of one
// extension share its setup and tweak counter, so they interleave
// freely.
// Labels that were fixed before the OT ran (a pooled GarbledMaterial's
// evaluator zeros) go through the same batch plus one relabel block per
// bit; see GarblerSession::send_fixed_labels.
//
// A session runs two extensions (gc/protocol.h): the forward one, the
// garbler sending, for labels, and a reverse one, the garbler
// receiving, for the fronts. The reverse one takes no base OTs: its
// kappa seed pairs are the hashes H(L0_i), H(L0_i ^ delta') of kappa
// forward correlated OTs under a fresh delta' (never a garbling delta),
// and the other party's seeds are the hashes of the labels its random
// choice bits s' picked (setup_reverse). That costs one forward batch,
// 8 + 2*128*16 = 4,104 bytes per session, in place of 128 more
// Ed25519 base OTs.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "crypto/block.h"
#include "crypto/prg.h"
#include "net/channel.h"
#include "obs/metrics.h"
#include "support/bits.h"

namespace deepsecure {

/// Base OT, sender side: transfers msgs[i].first for choice 0,
/// msgs[i].second for choice 1.
void base_ot_send(Channel& ch, const std::vector<std::pair<Block, Block>>& msgs,
                  Prg& prg);

/// Base OT, receiver side.
std::vector<Block> base_ot_recv(Channel& ch, const BitVec& choices, Prg& prg);

inline constexpr size_t kOtExtKappa = 128;  // base-OT security parameter

namespace otstat {
// Process-wide OT instruments (Registry::global()). The receiver records
// each batch once, with one relaxed add per counter, so a process that
// runs both parties counts every OT once:
//   gc.ot.transfers — OTs completed
//   gc.ot.bytes     — wire bytes of those batches in both directions,
//                     plus the relabel blocks of pooled label transfers
// Label and vector arithmetic OTs both count (the latter once per OT,
// not per word).
inline obs::Counter& transfers() {
  static obs::Counter& c = obs::Registry::global().counter("gc.ot.transfers");
  return c;
}
inline obs::Counter& bytes() {
  static obs::Counter& c = obs::Registry::global().counter("gc.ot.bytes");
  return c;
}
}  // namespace otstat

/// Wire bytes of one batch of m OTs carrying `words` 32-bit correlations
/// in all (vector arithmetic OT), both directions.
constexpr uint64_t vector_ot_bytes(uint64_t m, uint64_t words) {
  return m > 0 ? 8 + kOtExtKappa * ((m + 7) / 8) + 4 * words : 0;
}

/// Transpose a kappa x m bit matrix: `cols` holds 128 packed columns of
/// `stride` >= ceil(m/8) bytes each (column i's bit j is bit j%8 of byte
/// cols[i*stride + j/8]); returns m rows whose bit i (lo for i < 64, hi
/// above) is column i's bit j. SSE2 movemask over 16x8 tiles.
std::vector<Block> transpose_columns(const uint8_t* cols, size_t stride,
                                     size_t m);

class OtExtReceiver;

class OtExtSender {
 public:
  explicit OtExtSender(Channel& ch) : ch_(ch) {}

  /// Runs kappa base OTs (as base-OT receiver with random choices s).
  void setup(Prg& prg);

  /// Sets up without base OTs, as the sender of an extension running
  /// against `forward` (set up, on the same channel): kappa correlated
  /// OTs on `forward` with random choice bits s, their labels hashed
  /// into the column seeds. The peer runs OtExtReceiver::setup_reverse.
  void setup_reverse(OtExtReceiver& forward, Prg& prg);

  /// One batch of m correlated OTs under `delta` (lsb 1): returns the
  /// zero labels L0 (lsb 0); the receiver learns L0[j] ^ b_j*delta.
  /// Throws std::runtime_error if the receiver's batch size is not m.
  std::vector<Block> send_correlated(size_t m, Block delta);

  /// One batch of offset.size() - 1 vector arithmetic OTs: OT j carries
  /// the correlations delta[offset[j], offset[j+1]). Returns the pads p,
  /// laid out as delta (the receiver learns p[i] + b_j*delta[i] mod 2^32
  /// for every word i of OT j). Throws std::runtime_error if the
  /// receiver's batch size is not offset.size() - 1.
  std::vector<uint32_t> send_vector(const std::vector<uint32_t>& offset,
                                    const std::vector<uint32_t>& delta);

 private:
  /// Receives the batch's u columns; returns the m rows q_j.
  std::vector<Block> extend(size_t m);
  /// Keys the column PRGs from the kappa seeds chosen by `s`.
  void seed(const BitVec& s, const std::vector<Block>& seeds);

  Channel& ch_;
  Block s_{};                                  // kappa secret choice bits
  std::vector<std::unique_ptr<Prg>> col_prg_;  // PRG(k_i^{s_i})
  uint64_t hash_index_ = 0;
  bool ready_ = false;
};

class OtExtReceiver {
 public:
  explicit OtExtReceiver(Channel& ch) : ch_(ch) {}

  /// Runs kappa base OTs (as base-OT sender with random seed pairs).
  void setup(Prg& prg);

  /// Sets up without base OTs, as the receiver of an extension running
  /// against `forward` (set up, on the same channel): kappa correlated
  /// OTs on `forward` under a fresh delta', hashed into the seed pairs.
  /// The peer runs OtExtSender::setup_reverse.
  void setup_reverse(OtExtSender& forward, Prg& prg);

  /// Counterpart of send_correlated: the label L0[j] ^ choices[j]*delta
  /// for every choice bit.
  std::vector<Block> recv_correlated(const BitVec& choices);

  /// Counterpart of send_vector: p[i] + choices[j]*delta[i] mod 2^32
  /// for every word i in [offset[j], offset[j+1]).
  std::vector<uint32_t> recv_vector(const BitVec& choices,
                                    const std::vector<uint32_t>& offset);

 private:
  /// Sends the batch size and u columns for `choices`; returns the rows
  /// t_j.
  std::vector<Block> extend(const BitVec& choices);
  /// Keys the column PRGs from the kappa seed pairs.
  void seed(const std::vector<std::pair<Block, Block>>& seeds);

  Channel& ch_;
  std::vector<std::unique_ptr<Prg>> col_prg0_;  // PRG(k_i^0)
  std::vector<std::unique_ptr<Prg>> col_prg1_;  // PRG(k_i^1)
  uint64_t hash_index_ = 0;
  bool ready_ = false;
};

}  // namespace deepsecure
