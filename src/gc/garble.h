// Garbling engine: free-XOR (Kolesnikov-Schneider), half-gates
// (Zahur-Rosulek-Evans, 2 ciphertexts per AND), point-and-permute, and
// fixed-key AES hashing (Bellare et al.) — the optimization stack from
// Section 2.3 of the paper. Row-reduction is subsumed by half-gates. An
// AND whose `b` the evaluator knows in plaintext (GateOp::kAndKnown)
// garbles as half-gates' evaluator half alone: 1 ciphertext.
//
// Labels are 128-bit blocks; the wire's "zero" label W0 encodes FALSE,
// W1 = W0 ^ delta encodes TRUE, lsb(delta) = 1 (permute bit). Evaluator
// inputs get zero-labels with lsb 0 (from the correlated OT on demand,
// gc/ot.h; fresh_known_zeros for offline artifacts), so on every
// evaluator-known wire lsb(label) is the plaintext bit the evaluator
// already owns — the select bit of a one-row AND.
#pragma once

#include <vector>

#include "circuit/circuit.h"
#include "crypto/prg.h"
#include "net/channel.h"

namespace deepsecure {

class BlockWriter;
class BlockReader;
class BufferPool;
struct HashBackend;

/// Wire labels, indexed like the corresponding input/output vectors.
using Labels = std::vector<Block>;

/// Hashing pipeline selection. kBatched accumulates AND gates into a
/// window and hashes it through the pipelined AES batch kernel; kScalar
/// is the retained per-gate reference path. Tweaks are assigned at
/// enqueue time and tables are emitted in gate order, so both pipelines
/// produce byte-identical garbled tables for the same seed.
enum class GcPipeline : uint8_t { kBatched, kScalar };

/// Max AND gates per batch window. Bounds scratch memory (the garbler
/// hashes up to 4 blocks per gate) while amortizing the AES pipeline
/// fill.
inline constexpr size_t kGcMaxBatchWindow = 1024;

/// Execution options for one GC endpoint. Both parties must agree on
/// `framed_tables` and `schedule` (they change the wire format/stream
/// order); the rest never affect the byte stream. kScalar and
/// `schedule = false` are test oracles, not serving options.
struct GcOptions {
  GcPipeline pipeline = GcPipeline::kBatched;
  /// Walk the width-scheduled gate order (circuit/schedule.h, cached on
  /// the Circuit, wires renumbered into label slots so a garbling
  /// allocates slots x 16 B of labels) instead of construction order.
  /// Reorders the garbled tables and tweak sequence identically on both
  /// sides; the runtime handshake's chain fingerprint covers the walked
  /// view. false walks construction order: the reference that
  /// test_schedule and test_runtime check the walked view against.
  bool schedule = true;
  /// Length-prefixed table frames aligned to batch windows (see
  /// block_io.h) — the streaming runtime's wire format. The framed
  /// payload is byte-identical to the monolithic stream.
  bool framed_tables = false;
  /// Zero-copy table plane (garbler + batched pipeline only): stage
  /// each batch window in a slab from this pool (slab size >=
  /// GarbleWindowLine::bytes_for(kGcMaxBatchWindow)) and hand the table
  /// rows to the channel as borrowed refcounted slices instead of
  /// copying them into the frame buffer; the runtime garbler always
  /// sets it. The wire stream is byte-identical either way (asserted in
  /// tests/test_runtime.cpp). Not owned; must outlive the last
  /// in-flight send. nullptr = copy path (offline artifacts, library
  /// callers).
  BufferPool* table_pool = nullptr;
  /// Batch AES kernel for this endpoint's window sweeps. nullptr = the
  /// process-wide selection (crypto/hash_backend.h: CPUID
  /// auto-dispatch). Every backend produces byte-identical tables, so
  /// this is a test and bench seam, never set in production. Not owned;
  /// must outlive the endpoint (registry entries are static).
  const HashBackend* hash_backend = nullptr;
};

class Garbler {
 public:
  /// `seed` drives all label sampling (pass entropy for real use,
  /// a constant for reproducible tests).
  Garbler(Channel& ch, Block seed, GcPipeline pipeline = GcPipeline::kBatched);
  Garbler(Channel& ch, Block seed, const GcOptions& opt);

  Block delta() const { return delta_; }

  /// Fresh zero-labels for `n` wires.
  Labels fresh_zeros(size_t n);

  /// Fresh zero-labels with lsb 0, for evaluator inputs whose labels are
  /// fixed before their OT runs (offline artifacts): XOR keeps lsb 0
  /// on every evaluator-known wire, so a one-row AND's evaluator reads
  /// its known bit as lsb(label).
  Labels fresh_known_zeros(size_t n);

  /// Garble `c`, streaming constant labels and garbled tables to the
  /// channel. Zero-labels for every input class must be supplied
  /// (lsb-0 labels for evaluator inputs, fresh_zeros for other new
  /// inputs, carried values for chained layers); throws
  /// std::invalid_argument if an evaluator-input zero-label has lsb 1.
  /// Returns output zero-labels; `state_next` (if non-null) receives the
  /// zero-labels of the state_next wires for the next cycle.
  Labels garble(const Circuit& c, const Labels& garbler_zeros,
                const Labels& evaluator_zeros, const Labels& state_zeros,
                Labels* state_next = nullptr);

  /// Transfer the active labels for the garbler's own input bits.
  void send_active(const BitVec& bits, const Labels& zeros);

  /// Receive output labels from the evaluator and decode (paper step 4:
  /// "merging results" on the client).
  BitVec decode_outputs(const Labels& output_zeros);

  /// Alternative decode direction: send lsb decode bits so the evaluator
  /// can open the outputs itself.
  void send_decode_info(const Labels& output_zeros);

 private:
  void garble_gates_scalar(const Circuit& c, Labels& w, BlockWriter& tables);
  void garble_gates_batched(const Circuit& c, Labels& w, BlockWriter& tables);

  Channel& ch_;
  Prg prg_;
  Block delta_;
  GcOptions opt_;
  uint64_t tweak_ = 0;
};

class Evaluator {
 public:
  explicit Evaluator(Channel& ch, GcPipeline pipeline = GcPipeline::kBatched)
      : ch_(ch), opt_{.pipeline = pipeline} {}
  Evaluator(Channel& ch, const GcOptions& opt) : ch_(ch), opt_(opt) {}

  /// Evaluate `c` with active labels for all inputs, consuming the
  /// garbled tables from the channel. Returns active output labels.
  Labels evaluate(const Circuit& c, const Labels& garbler_labels,
                  const Labels& evaluator_labels, const Labels& state_labels,
                  Labels* state_next = nullptr);

  /// Receive the garbler's active input labels.
  Labels recv_active(size_t n);

  /// Send output labels back for decoding (paper flow).
  void send_outputs(const Labels& labels);

  /// Decode outputs locally from garbler-provided decode bits.
  BitVec decode_with_info(const Labels& labels);

 private:
  void evaluate_gates_scalar(const Circuit& c, Labels& w, BlockReader& tables);
  void evaluate_gates_batched(const Circuit& c, Labels& w, BlockReader& tables);

  Channel& ch_;
  GcOptions opt_;
  uint64_t tweak_ = 0;
};

}  // namespace deepsecure
