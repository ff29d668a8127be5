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
//  * Arithmetic OT (Gilboa, CRYPTO 1999): the same rows under their own
//    hash domain carry 32-bit additive correlations. The sender's pad is
//    p_j = lo32(H(q_j)); it ships u_j = lo32(H(q_j ^ s)) - p_j - d_j and
//    the receiver takes lo32(H(t_j)) for b = 0 and lo32(H(t_j)) - u_j
//    for b = 1, i.e. p_j + b*d_j (mod 2^32). The served linear layers'
//    products x*w, and the B2A conversions that feed the hidden ones,
//    are shared this way (runtime/front.h).
//
// Wire per batch of m OTs: receiver -> sender 8 + 128*ceil(m/8) bytes
// (batch size, then the packed u columns), sender -> receiver 16*m
// (correlated) or 4*m (arithmetic). Both kinds share one setup and one
// tweak counter, so they interleave freely on a session.
// Labels that were fixed before the OT ran (a pooled GarbledMaterial's
// evaluator zeros) go through the same batch plus one relabel block per
// bit; see GarblerSession::send_fixed_labels.
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
// Label and arithmetic OTs both count.
inline obs::Counter& transfers() {
  static obs::Counter& c = obs::Registry::global().counter("gc.ot.transfers");
  return c;
}
inline obs::Counter& bytes() {
  static obs::Counter& c = obs::Registry::global().counter("gc.ot.bytes");
  return c;
}
}  // namespace otstat

/// Transpose a kappa x m bit matrix: `cols` holds 128 packed columns of
/// `stride` >= ceil(m/8) bytes each (column i's bit j is bit j%8 of byte
/// cols[i*stride + j/8]); returns m rows whose bit i (lo for i < 64, hi
/// above) is column i's bit j. SSE2 movemask over 16x8 tiles.
std::vector<Block> transpose_columns(const uint8_t* cols, size_t stride,
                                     size_t m);

class OtExtSender {
 public:
  explicit OtExtSender(Channel& ch) : ch_(ch) {}

  /// Runs kappa base OTs (as base-OT receiver with random choices s).
  void setup(Prg& prg);

  /// One batch of m correlated OTs under `delta` (lsb 1): returns the
  /// zero labels L0 (lsb 0); the receiver learns L0[j] ^ b_j*delta.
  /// Throws std::runtime_error if the receiver's batch size is not m.
  std::vector<Block> send_correlated(size_t m, Block delta);

  /// One batch of delta.size() arithmetic OTs: returns the pads p (the
  /// receiver learns p[j] + b_j*delta[j] mod 2^32).
  std::vector<uint32_t> send_arith(const std::vector<uint32_t>& delta);

 private:
  /// Receives the batch's u columns; returns the m rows q_j.
  std::vector<Block> extend(size_t m);

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

  /// Counterpart of send_correlated: the label L0[j] ^ choices[j]*delta
  /// for every choice bit.
  std::vector<Block> recv_correlated(const BitVec& choices);

  /// Counterpart of send_arith: p[j] + choices[j]*delta[j] mod 2^32.
  std::vector<uint32_t> recv_arith(const BitVec& choices);

 private:
  /// Sends the batch size and u columns for `choices`; returns the rows
  /// t_j.
  std::vector<Block> extend(const BitVec& choices);

  Channel& ch_;
  std::vector<std::unique_ptr<Prg>> col_prg0_;  // PRG(k_i^0)
  std::vector<std::unique_ptr<Prg>> col_prg1_;  // PRG(k_i^1)
  uint64_t hash_index_ = 0;
  bool ready_ = false;
};

}  // namespace deepsecure
