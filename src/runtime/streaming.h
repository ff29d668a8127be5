// Streaming pipelined execution engine — one endpoint of the garble →
// transfer → eval pipeline.
//
// Composition (per endpoint):
//
//   transport Channel (TcpChannel / MemChannel)
//     └─ BufferedChannel        small control messages coalesce
//          └─ GarblerSession / EvaluatorSession (walked view)
//               └─ framed table stream: the garbler ships each
//                  completed batch window as a length-prefixed frame
//                  from pooled slabs (zero-copy), and the evaluator
//                  consumes frame by frame — garbling, transfer, and
//                  evaluation of one circuit overlap in time
//
// One session garbles or evaluates on one thread; a server gets its
// parallelism from running many sessions at once.
//
// This header is the composition layer the multi-session server and
// the client driver build on.
#pragma once

#include <memory>

#include "gc/protocol.h"
#include "net/buffered_channel.h"
#include "support/buffer_pool.h"

namespace deepsecure::runtime {

/// The served GC configuration, fixed and so never negotiated: framed
/// tables over the walked view; `table_pool` (garbler only) backs the
/// zero-copy table plane. The byte-identical oracles are GcOptions test
/// seams.
inline GcOptions served_gc_options(BufferPool* table_pool = nullptr) {
  GcOptions o;
  o.framed_tables = true;
  o.table_pool = table_pool;
  return o;
}

/// Holds no settings. It stays only because perfbench's loopback probe
/// (`gc_loopback`) constructs one for the StreamingGarbler and
/// StreamingEvaluator constructors; the benchmark change that retires
/// `run_chain` deletes it.
struct StreamConfig {};

/// Client-side engine: owns the table slab pool and the buffered
/// channel, and drives a GarblerSession over them. The underlying
/// transport must outlive this object.
class StreamingGarbler {
 public:
  explicit StreamingGarbler(Channel& transport, Block seed,
                            const StreamConfig& cfg = {});

  BitVec run_chain(const std::vector<Circuit>& chain, const BitVec& data_bits);

  const SessionTrace& trace() const { return session_->trace(); }
  BufferedChannel& channel() { return ch_; }
  /// Direct session access for the served stages: fronts, run_stage
  /// and open on demand, and the pooled online phase
  /// (send_fixed_labels, send_online_labels, recv_result) — see
  /// gc/protocol.h and runtime/front.h.
  GarblerSession& session() { return *session_; }

 private:
  // Slab pool backing the zero-copy table plane. May die with sends
  // still in flight — the refcounted core outlives it
  // (support/buffer_pool.h teardown contract), so destruction order
  // vs. an async transport is a non-issue.
  std::unique_ptr<BufferPool> table_pool_;
  BufferedChannel ch_;
  std::unique_ptr<GarblerSession> session_;
};

/// Server-side engine: evaluator role (the model owner in the paper).
class StreamingEvaluator {
 public:
  explicit StreamingEvaluator(Channel& transport,
                              const StreamConfig& cfg = {});

  BitVec run_chain(const std::vector<Circuit>& chain,
                   const BitVec& weight_bits);

  const SessionTrace& trace() const { return session_->trace(); }
  BufferedChannel& channel() { return ch_; }

 private:
  BufferedChannel ch_;
  std::unique_ptr<EvaluatorSession> session_;
};

}  // namespace deepsecure::runtime
