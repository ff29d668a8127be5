// Offline-phase garbling artifacts (the DeepSecure offline/online split,
// Section 2.2 / the paper's "constant + input-dependent" cost model):
// everything about a garbled execution that does not depend on either
// party's inputs is computed ahead of time and captured in a
// self-contained GarbledMaterial. The online phase then consumes one
// artifact per inference and is reduced to label transfer + evaluation:
//
//   offline (garbler, local):   garble the chain -> tables, input-label
//                               pairs, output-decode bits, fingerprint
//   offline (both):             ship tables/decode bits
//   online  (both, interactive):correlated OT + relabel blocks for the
//                               evaluator's inputs (fixed labels)
//   online  (garbler):          send active data labels  (n0 blocks)
//   online  (evaluator):        evaluate from local material, decode,
//                               return the result
//
// Each artifact burns one fresh delta / label set and must be used for
// exactly one evaluation (reuse would leak wire values), which is why
// the runtime pools whole instances rather than caching one.
#pragma once

#include <cstdint>
#include <vector>

#include "gc/garble.h"

namespace deepsecure {

/// A hash (one murmur3 fmix64 step per word) over the full gate list
/// and interface of every circuit in the chain: two endpoints that
/// compiled different netlists (or different layer orders) disagree
/// with overwhelming probability. Stamped into every offline artifact
/// and cross-checked by the runtime handshake
/// (runtime::chain_fingerprint is an alias of this).
///
/// The table stream and tweak sequence follow the *walked* gate order,
/// so the hash covers the view the endpoints execute: by default the
/// scheduled, slot-numbered view every server and client walks (and,
/// since they hold walk_chain's views, the chain itself there).
/// `scheduled` = false hashes the links as given: construction order on
/// a compiled chain, matching an artifact garbled with the
/// GcOptions::schedule = false oracle, and the same value as `true` on
/// a walked chain.
uint64_t chain_fingerprint(const std::vector<Circuit>& chain,
                           bool scheduled = true);

/// Bytes of the recorded constant-label + garbled-table stream of one
/// inference over `chain`: per circuit, the 2 constant labels plus 2
/// table rows (32 B) per AND gate. The exact size of
/// GarbledMaterial::tables.
uint64_t material_stream_bytes(const std::vector<Circuit>& chain);

/// Garbler-side offline artifact for one inference over a circuit
/// chain. `tables` is the monolithic constant-label + garbled-table
/// stream exactly as Evaluator::evaluate consumes it, circuit by
/// circuit in chain order (always unframed: the artifact ships as one
/// opaque bulk payload, so window framing would only add headers).
struct GarbledMaterial {
  uint64_t fingerprint = 0;  // chain_fingerprint of the garbled chain
  Block delta{};
  Labels data_zeros;   // circuit-0 garbler-input zero labels
  Labels eval_zeros;   // evaluator-input zero labels, chain order
  /// lsb permute bits of the final outputs. For a stage that is not
  /// opened they are the garbler's XOR shares of its outputs, and stay
  /// with the garbler (send_material ships whatever is left here).
  BitVec decode_bits;
  std::vector<uint8_t> tables;

  /// Number of oblivious transfers the online phase needs — one per
  /// evaluator input bit across the whole chain.
  size_t ot_count() const { return eval_zeros.size(); }
};

/// Offline stage: garble `chain` into a self-contained artifact. Pure
/// local computation — no channel, no peer. `opt.pipeline` and
/// `opt.schedule` apply as in streaming garbling; `opt.framed_tables`
/// and `opt.table_pool` are ignored (see GarbledMaterial::tables).
GarbledMaterial garble_offline(const std::vector<Circuit>& chain, Block seed,
                               const GcOptions& opt = {});

/// Evaluator-side half of one pooled stage: everything that arrived
/// ahead of the request, then `eval_labels`, the *active*
/// evaluator-input labels, once their OT resolved them. `decode_bits`
/// are empty for a stage that is not opened.
struct EvalMaterial {
  Labels eval_labels;
  BitVec decode_bits;
  std::vector<uint8_t> tables;
};

/// Online stage, evaluator side: evaluate `chain` against local
/// material. `garbler_labels` are the active circuit-0 garbler-input
/// labels. Returns the active output labels (decode_labels opens them).
Labels evaluate_material(const std::vector<Circuit>& chain,
                         const EvalMaterial& mat, const Labels& garbler_labels,
                         const GcOptions& opt = {});

/// Output bits of active labels under their decode bits: lsb ^ decode.
/// Throws std::invalid_argument on a count mismatch.
BitVec decode_labels(const Labels& active, const BitVec& decode_bits);

/// Ship the input-independent bytes of an artifact (decode bits +
/// tables) to the peer. The evaluator-input labels travel separately
/// (GarblerSession::send_fixed_labels). Consumes `mat.tables` only,
/// shipping it as one borrowed refcounted slice
/// (support/buffer_pool.h), so an asynchronous channel forwards the
/// multi-MB table stream without copying it; the rest of `mat` stays
/// valid for the OT exchange.
void send_material(Channel& ch, GarbledMaterial&& mat);

/// Counterpart of send_material: returns an EvalMaterial with
/// `eval_labels` still empty (the caller fills it after the OT step).
/// The limits bound the allocations a peer's length headers can demand
/// (both the decode-bit count and the table stream are read from the
/// wire) — a server that knows the chain passes the exact expected
/// sizes.
EvalMaterial recv_material(Channel& ch,
                           uint64_t max_table_bytes = uint64_t{1} << 30,
                           uint64_t max_decode_bits = uint64_t{1} << 24);

}  // namespace deepsecure
