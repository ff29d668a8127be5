// Client driver for the streaming inference server: the data owner
// (Alice, garbler). Connects over TCP, performs the session handshake
// (chain fingerprint + framing flag check), and then runs any
// number of secure inferences over one session — the base-OT setup and
// the OT-extension state amortize across requests.
//
// Two request paths:
//   * on-demand: each infer garbles on the request path, framed so the
//     server evaluates while the client is still garbling (PR 2).
//   * pooled (offline/online split): a MaterialPool garbles whole
//     instances in the background; prefetch() pushes them to the server
//     ahead of requests (tables, decode bits, and the precomputed-OT
//     label resolution all travel offline), and an infer against
//     prefetched material sends only the active data labels and waits
//     for the result — no garbling, no OT on the request path. A
//     drained pool falls back to on-demand transparently.
//
// Cross-request pipelining: begin_infer_bits/finish_infer expose the
// send and receive halves of a pooled inference, so a client can queue
// several kInfer frames back-to-back and the server works through them
// while later requests are already in flight.
//
// Async prefetch lane (protocol v4): with ClientConfig::async_prefetch
// the client opens a SECOND connection to the server's lane listener
// (port + single-use token from the hello ack) and a background lane
// thread refills the server-side store through it — pool artifacts are
// pushed concurrently with in-flight kInfer traffic on the primary
// connection, so a drain-heavy burst no longer stalls its inference
// pipeline to re-prefetch. The lane thread is the only writer of the
// lane connection; the primary connection stays single-threaded.
//
// Hot handoffs ride lock-free SPSC rings (support/spsc_ring.h):
//   * credits_ — the per-session prefetch quota as explicit ring slots.
//     The ring is seeded with `quota` tokens; the lane (or a sync push)
//     pops one per artifact shipped, and finish_infer pushes it back
//     once the server has provably consumed the artifact. The server
//     never sends credit frames — the pooled-inference RESULT is the
//     credit return — so an empty ring is exactly "store + pending
//     occupancy at quota" and the lane parks instead of tripping a
//     session-killing kError mid-OT.
//   * prefetched_ — client-side remainders of pushed artifacts, lane
//     thread → caller.
//   * the lane's wire bytes go through a RingChannel (net/
//     ring_channel.h), so artifact serialization and the OT rounds
//     overlap the kernel sends instead of serializing with them.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "fixed/fixed_point.h"
#include "net/fault_channel.h"
#include "net/ring_channel.h"
#include "net/tcp_channel.h"
#include "runtime/frame.h"
#include "runtime/material_pool.h"
#include "runtime/streaming.h"
#include "support/spsc_ring.h"
#include "synth/layer_circuits.h"

namespace deepsecure::runtime {

struct ClientConfig {
  StreamConfig stream;
  /// Label-PRG seed; zero draws from OS entropy (per-session seeds).
  Block seed{};
  /// Offline pool: number of garbled instances to keep ready; 0
  /// disables pooling entirely (every infer is on-demand).
  size_t pool_target = 0;
  /// Background producer threads for the pool.
  size_t pool_producers = 1;
  /// Window-shard threads per pool garbling: one artifact's batch
  /// windows fan out across this many extra workers (byte-identical
  /// artifact), cutting the time-to-first-warm-artifact after a cold
  /// start or model reload. 0 = each artifact garbles single-threaded.
  size_t pool_shard_threads = 0;
  /// Refill the server-side store through a dedicated second connection
  /// (the v4 prefetch lane) driven by a background thread, instead of
  /// synchronous pushes on the session. Pushes then overlap in-flight
  /// kInfer traffic, so auto_top_up no longer lands the push cost in
  /// any request's tail. Requires pooling (pool_target > 0).
  bool async_prefetch = false;
  /// Re-prefetch opportunistically after each inference completes, so a
  /// steady request stream keeps hitting warm material. Without the
  /// async lane the push is synchronous on this session, so its cost
  /// (table upload + OT precompute) lands inside the tail of the
  /// request that triggered it — latency-sensitive callers should
  /// enable async_prefetch, or disable this and call top_up() at their
  /// own boundaries. Also disable for deterministic drain behavior
  /// (tests, bounded-memory clients).
  bool auto_top_up = true;
  /// Deterministic fault injection on the client side of the wire
  /// (net/fault_channel.h): wraps the primary and lane transports.
  /// Tests and loadgen --chaos; off (rate 0) in production.
  FaultConfig chaos;
  /// Self-healing budget: how many times a failed session may be
  /// rebuilt (reconnect + full re-handshake + lane re-attach) before
  /// infer() surfaces the error. 0 = fail fast (legacy behavior).
  /// Material whose transfer or OT was in flight at the failure is
  /// POISONED — dropped, never replayed — so a retried inference draws
  /// fresh pool material or falls back to on-demand garbling.
  size_t max_retries = 0;
  /// Reconnect backoff: base delay, doubled per consecutive attempt
  /// with deterministic jitter, capped at backoff_cap_ms. A kBusy
  /// retry-after hint from the server overrides the computed delay
  /// when larger.
  uint64_t backoff_base_ms = 10;
  uint64_t backoff_cap_ms = 1000;
};

class InferenceClient {
 public:
  /// `spec` is the public model architecture — the client compiles the
  /// same chain the server compiled, keeps only its walked views
  /// (walk_chain, circuit/schedule.h; the material pool borrows them),
  /// and the handshake cross-checks the fingerprints over them.
  InferenceClient(const std::string& host, uint16_t port,
                  const synth::ModelSpec& spec, ClientConfig cfg = {});
  ~InferenceClient();

  InferenceClient(const InferenceClient&) = delete;
  InferenceClient& operator=(const InferenceClient&) = delete;

  /// One secure inference: encodes `sample` in the chain's fixed-point
  /// format and returns the predicted label index. Uses prefetched
  /// material when available, on-demand garbling otherwise.
  size_t infer(const std::vector<float>& sample);

  /// Raw-bit variant (caller did the encoding).
  BitVec infer_bits(const BitVec& data_bits);

  /// Warm the server-side store with up to `n` pool artifacts ahead of
  /// requests, clamped to the server's advertised per-session prefetch
  /// quota (and, on the async lane, to pool_target — the lane's refill
  /// ceiling). Synchronous mode pushes here (blocking on pool
  /// production); async mode wakes the lane and waits for it to catch
  /// up. Returns how many are now prefetched. Requires pooling enabled
  /// and no inference in flight (in async mode an in-flight inference
  /// pins a slot credit only finish_infer can return — waiting here
  /// would deadlock).
  size_t prefetch(size_t n);

  /// Pipelined pooled inference, send half: consumes one prefetched
  /// artifact and ships the request without waiting for the result.
  /// Throws if nothing is prefetched — callers race ahead only against
  /// warm material. Pair FIFO with finish_infer.
  void begin_infer_bits(const BitVec& data_bits);

  /// Pipelined pooled inference, receive half: result of the oldest
  /// in-flight request.
  BitVec finish_infer();

  /// Push ready pool artifacts until prefetched() reaches
  /// min(pool_target, server quota). Synchronous mode pushes inline
  /// without blocking on production (no-op while inferences are in
  /// flight); async mode just nudges the lane thread and returns
  /// immediately. Runs automatically after each inference under
  /// auto_top_up. No-op when pooling is disabled.
  void top_up();

  /// Artifacts pushed to the server and not yet consumed. Lock-free
  /// (ring cursor read); at most one handoff stale under a racing lane.
  size_t prefetched() const {
    return prefetched_ ? prefetched_->size() : 0;
  }
  /// Artifacts garbled and waiting in the local pool (0 when pooling is
  /// off). Lets a latency-sensitive caller wait for background refill
  /// garbling to quiesce before a measured window.
  size_t pool_ready() const { return pool_ ? pool_->ready() : 0; }
  /// begin_infer_bits calls not yet finished.
  size_t in_flight() const { return in_flight_; }
  uint64_t pooled_inferences() const { return pooled_inferences_; }
  uint64_t ondemand_inferences() const { return ondemand_inferences_; }
  /// Self-healing audit trail (this client; the process-wide aggregates
  /// live in Registry::global() as client.retries /
  /// client.sessions_recovered / pool.poisoned).
  uint64_t retries() const { return retries_; }
  uint64_t sessions_recovered() const { return recovered_; }
  /// Artifacts discarded by recovery because their transfer or OT was
  /// in flight at a session failure (the one-shot invariant: partially
  /// consumed garbled material is never replayed).
  uint64_t poisoned() const { return poisoned_; }
  /// Whether the async prefetch lane is up (attached and not failed).
  bool lane_active() const;

  /// Ask the server for its runtime counters (protocol v5 kStats): one
  /// round trip on the primary connection returning the server's
  /// stats_json() document verbatim. Requires an open session with no
  /// inference in flight (the reply would interleave with result
  /// frames).
  std::string server_stats();

  /// Phase timings accumulated across all inferences on this session.
  const SessionTrace& trace() const { return garbler_->trace(); }

  /// Orderly goodbye; further infer calls are invalid. Drains any
  /// in-flight pipelined inferences, stops the lane thread (rethrowing
  /// a parked lane failure), and says kBye on both connections. Also
  /// run by the destructor if still open (which swallows the rethrow).
  void close();

  size_t input_bits() const;

 private:
  // Client-side remainder of a pushed artifact: just enough to encode
  // active data labels online (the rest lives on the server now).
  struct PrefetchedMaterial {
    uint64_t id = 0;
    Block delta{};
    Labels data_zeros;
  };

  void push_material(GarbledMaterial&& mat);
  /// The push protocol over one connection (primary or lane): id frame,
  /// artifact bytes, precomputed-OT + derandomization, ack.
  PrefetchedMaterial push_material_over(StreamingGarbler& g,
                                        GarbledMaterial&& mat, uint64_t id);
  void start_lane(uint16_t lane_port, uint64_t lane_token);
  void lane_loop(uint64_t lane_token);
  size_t lane_target() const;  // min(pool_target, server quota)
  /// Connect + handshake the primary session (kBusy answered with a
  /// backoff-and-retry loop bounded by max_retries). Fills transport_/
  /// garbler_, the quota, and the lane attach info; reseeds credits_.
  void connect_and_handshake();
  /// Rebuild a failed session: stop the lane, poison in-flight and
  /// server-parked material, reconnect + re-handshake, re-attach the
  /// lane. The local pool survives (its artifacts never hit the wire).
  void recover_session();
  /// Non-retryable body of infer_bits (one attempt).
  BitVec infer_bits_once(const BitVec& data_bits);
  /// Exponential backoff with deterministic jitter; sleeps at least
  /// `floor_ms` (a server-provided retry-after hint).
  void backoff_sleep(size_t attempt, uint64_t floor_ms = 0);

  std::vector<Circuit> chain_;
  FixedFormat fmt_;
  ClientConfig cfg_;
  std::string host_;
  uint16_t port_ = 0;
  // Primary connection stack, rebuilt whole on recovery. The optional
  // chaos decorator sits between the transport and the garbler's
  // buffered channel (declaration order = teardown order).
  std::unique_ptr<TcpChannel> transport_;
  std::unique_ptr<FaultChannel> fault_;
  std::unique_ptr<StreamingGarbler> garbler_;
  std::unique_ptr<MaterialPool> pool_;

  // Shared between the caller thread and the lane thread. The mutex
  // guards only the flags and the CV predicates; the artifact and
  // credit handoffs themselves are the lock-free rings below. Ring ops
  // pair with an empty mu_ critical section before each notify so a
  // predicate evaluated under the lock can never miss a push.
  mutable std::mutex mu_;
  std::condition_variable lane_cv_;    // wakes the lane: refill wanted
  std::condition_variable caught_up_;  // wakes prefetch(): lane pushed
  /// Lane → caller: remainders of pushed artifacts (see file header).
  /// In sync mode the caller plays both ring roles. Sized to the quota.
  std::unique_ptr<SpscRing<PrefetchedMaterial>> prefetched_;
  /// The prefetch quota as explicit credit slots (see file header):
  /// seeded with `quota` tokens; pop-to-push an artifact, finish_infer
  /// returns the token. Producer = the caller (finish_infer), consumer
  /// = whichever side ships artifacts (the lane in async mode, the
  /// caller in sync mode) — exactly one each way. Total tokens in
  /// circulation never exceeds the quota, so the ring cannot overflow.
  std::unique_ptr<SpscRing<uint64_t>> credits_;
  uint64_t next_material_id_ = 1;
  bool lane_stop_ = false;
  bool lane_up_ = false;  // attached and serving
  std::exception_ptr lane_error_;

  // Lane connection: owned here, written only by lane_thread_. The
  // RingChannel decouples the lane's frame production from the kernel
  // sends; declaration order = teardown order (garbler flushes through
  // the ring, the ring drains into the transport, then the socket
  // closes).
  std::unique_ptr<TcpChannel> lane_transport_;
  std::unique_ptr<FaultChannel> lane_fault_;
  std::unique_ptr<RingChannel> lane_ring_;
  std::unique_ptr<StreamingGarbler> lane_garbler_;
  std::thread lane_thread_;

  uint64_t server_prefetch_quota_ = 0;  // advertised in the hello ack
  uint16_t lane_port_ = 0;    // lane attach info from the latest ack
  uint64_t lane_token_ = 0;   // (single-use: refreshed per handshake)
  size_t in_flight_ = 0;
  uint64_t pooled_inferences_ = 0;
  uint64_t ondemand_inferences_ = 0;
  // Self-healing state: the epoch salts the garbler seed so a rebuilt
  // session can never replay the labels of a dead one (one-shot
  // invariant), the connection index keeps chaos fault plans distinct
  // per connection, and the rng drives backoff jitter deterministically.
  uint64_t session_epoch_ = 0;
  uint64_t chaos_conn_index_ = 0;
  uint64_t backoff_rng_ = 0x9e3779b97f4a7c15ull;
  uint64_t retries_ = 0;
  uint64_t recovered_ = 0;
  uint64_t poisoned_ = 0;
  bool open_ = false;
  bool closing_ = false;  // suppresses top_up while close() drains
};

}  // namespace deepsecure::runtime
