// Streaming pipelined execution engine — one endpoint of the garble →
// transfer → eval pipeline.
//
// Composition (per endpoint):
//
//   transport Channel (TcpChannel / MemChannel)
//     └─ BufferedChannel        small control messages coalesce
//          └─ GarblerSession / EvaluatorSession (walked view)
//               ├─ framed table stream: the garbler ships each
//               │  completed batch window as a length-prefixed frame
//               │  from pooled slabs (zero-copy), and the evaluator
//               │  consumes frame by frame — garbling, transfer, and
//               │  evaluation of one circuit overlap in time
//               └─ ThreadPool: batch windows are sharded across
//                  cores on either side (byte-identical)
//
// This header is the composition layer the multi-session server and
// the client driver build on.
#pragma once

#include <memory>

#include "gc/protocol.h"
#include "net/buffered_channel.h"
#include "support/buffer_pool.h"
#include "support/thread_pool.h"

namespace deepsecure::runtime {

/// Local settings of a runtime endpoint; none changes a wire byte, so
/// none is negotiated. The served configuration itself is fixed: see
/// gc_options. The byte-identical oracles are GcOptions test seams.
struct StreamConfig {
  /// Worker threads for garbler-side window sharding; 0 = garble on the
  /// session thread only.
  size_t garble_threads = 0;
  /// Worker threads for evaluator-side window sharding (the same
  /// per-shard tweak/table-order invariant as the garbler's pool); 0 =
  /// evaluate on the session thread only.
  size_t eval_threads = 0;

  /// Framed tables over the walked view; `table_pool` (garbler only)
  /// backs the zero-copy table plane.
  GcOptions gc_options(ThreadPool* pool,
                       BufferPool* table_pool = nullptr) const {
    GcOptions o;
    o.framed_tables = true;
    o.pool = pool;
    o.table_pool = table_pool;
    return o;
  }
};

/// Client-side engine: owns the shard pool and the buffered channel, and
/// drives a GarblerSession over them. The underlying transport must
/// outlive this object.
class StreamingGarbler {
 public:
  StreamingGarbler(Channel& transport, Block seed, const StreamConfig& cfg);

  BitVec run_chain(const std::vector<Circuit>& chain, const BitVec& data_bits);

  const SessionTrace& trace() const { return session_->trace(); }
  BufferedChannel& channel() { return ch_; }
  /// Direct session access for the served stages: fronts, run_stage
  /// and open on demand, and the pooled online phase
  /// (send_fixed_labels, send_online_labels, recv_result) — see
  /// gc/protocol.h and runtime/front.h.
  GarblerSession& session() { return *session_; }

 private:
  std::unique_ptr<ThreadPool> pool_;  // may be null (0 threads)
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
  StreamingEvaluator(Channel& transport, const StreamConfig& cfg);

  BitVec run_chain(const std::vector<Circuit>& chain,
                   const BitVec& weight_bits);

  const SessionTrace& trace() const { return session_->trace(); }
  BufferedChannel& channel() { return ch_; }

 private:
  std::unique_ptr<ThreadPool> pool_;  // may be null (0 eval threads)
  BufferedChannel ch_;
  std::unique_ptr<EvaluatorSession> session_;
};

}  // namespace deepsecure::runtime
