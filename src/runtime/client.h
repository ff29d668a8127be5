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
//     ahead of requests (every stage's tables, and the last stage's
//     decode bits, with no OT), and an infer against prefetched
//     material runs, per stage, only the front, the label OT of the
//     server's share bits and the active labels of the client's, then
//     waits for the result — no garbling on the request path. A drained
//     pool falls back to on-demand transparently.
//
// The served model is a list of stages (synth/served.h), one per linear
// layer: each opens with its front (runtime/front.h), which shares the
// layer's products by vector arithmetic OT, and then runs its garbled
// chain (the share circuit and the non-linear layers after it). A
// stage's outputs stay XOR-shared and feed the next front as they are.
// Only the last stage is opened.
//
// Async prefetch lane (protocol v4): with ClientConfig::async_prefetch
// the client opens a SECOND connection to the server's lane listener
// (port + single-use token from the hello ack) and a background lane
// thread refills the server-side store through it — pool artifacts are
// pushed concurrently with kInfer traffic on the primary connection,
// so a drain-heavy burst no longer stalls its inference to
// re-prefetch. The lane thread is the only writer of the lane
// connection; the primary connection stays single-threaded.
//
// The lane's inventory is a deque of pushed artifacts' client-side
// remainders plus one flag for the pooled inference in flight, both
// under one mutex. The server counts an artifact against its quota
// until the kInfer that consumes it is served, and sends no credit
// frames: the pooled-inference RESULT frees the slot. So the lane
// pushes only while prefetched + in flight is under the quota, and
// parks instead of tripping a session-killing kError.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "fixed/fixed_point.h"
#include "net/fault_channel.h"
#include "net/tcp_channel.h"
#include "runtime/frame.h"
#include "runtime/material_pool.h"
#include "runtime/streaming.h"
#include "synth/served.h"

namespace deepsecure::runtime {

struct ClientConfig {
  /// Label-PRG seed; zero draws from OS entropy (per-session seeds).
  Block seed{};
  /// Offline pool: number of garbled instances to keep ready; 0
  /// disables pooling entirely (every infer is on-demand).
  size_t pool_target = 0;
  /// Refill the server-side store through a dedicated second connection
  /// (the v4 prefetch lane) driven by a background thread, instead of
  /// synchronous pushes on the session. Pushes then overlap in-flight
  /// kInfer traffic, so auto_top_up no longer lands the push cost in
  /// any request's tail. Requires pooling (pool_target > 0).
  bool async_prefetch = false;
  /// Re-prefetch opportunistically after each inference completes, so a
  /// steady request stream keeps hitting warm material. Without the
  /// async lane the push is synchronous on this session, so its cost
  /// (the table upload) lands inside the tail of the
  /// request that triggered it — latency-sensitive callers should
  /// enable async_prefetch, or disable this and call top_up() at their
  /// own boundaries. Also disable for deterministic drain behavior
  /// (tests, bounded-memory clients).
  bool auto_top_up = true;
  /// Deterministic fault injection on the client side of the wire
  /// (net/fault_channel.h): wraps the primary and lane transports.
  /// Tests only; off (rate 0) in production.
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
  /// same served stages the server compiled (synth/served.h), keeps
  /// only their chains' walked views (walk_chain, circuit/schedule.h;
  /// the material pool borrows them), and the handshake cross-checks
  /// the fingerprints over chains and front plans.
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
  /// up. Returns how many are now prefetched. Requires pooling enabled.
  size_t prefetch(size_t n);

  /// Push ready pool artifacts until prefetched() reaches
  /// min(pool_target, server quota). Synchronous mode pushes inline
  /// without blocking on production; async mode just nudges the lane
  /// thread and returns immediately. Runs automatically after each
  /// inference under auto_top_up. No-op when pooling is disabled.
  void top_up();

  /// Artifacts pushed to the server and not yet consumed.
  size_t prefetched() const {
    std::lock_guard<std::mutex> lock(mu_);
    return prefetched_.size();
  }
  /// Artifacts garbled and waiting in the local pool (0 when pooling is
  /// off). Lets a latency-sensitive caller wait for background refill
  /// garbling to quiesce before a measured window.
  size_t pool_ready() const { return pool_ ? pool_->ready() : 0; }
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
  /// stats_json() document verbatim. Requires an open session.
  std::string server_stats();

  /// Phase timings accumulated across all inferences on this session.
  const SessionTrace& trace() const { return garbler_->trace(); }

  /// Orderly goodbye; further infer calls are invalid. Stops the lane
  /// thread (rethrowing a parked lane failure) and says kBye on both
  /// connections. Also run by the destructor if still open (which
  /// swallows the rethrow).
  void close();

  size_t input_bits() const;

 private:
  // Client-side remainder of one stage of a pushed artifact: just
  // enough to encode its labels online (the rest lives on the server).
  struct PrefetchedStage {
    Block delta{};
    Labels data_zeros;   // chain[0]'s garbler inputs: the client's shares
    Labels front_zeros;  // chain[0]'s evaluator inputs: the server's
    BitVec shares;       // the client's XOR shares of the stage's outputs
                         // (its decode bits; empty for the last stage)
  };
  struct PrefetchedMaterial {
    uint64_t id = 0;
    std::vector<PrefetchedStage> stages;
  };

  /// The push protocol over one connection (primary or lane): id frame,
  /// each stage's decode bits and tables, ack; then files the artifact's
  /// client-side remainder in prefetched_.
  void push_material(BufferedChannel& ch, Artifact&& art);
  /// Stage `s` of a pooled inference, through the client's last send:
  /// front, the server's share-bit labels, the client's active labels.
  /// `bits` are the data for stage 0 and the client's XOR shares of the
  /// previous stage's outputs after.
  void send_pooled_stage(const PrefetchedMaterial& mat, size_t s,
                         const BitVec& bits);
  void start_lane(uint16_t lane_port, uint64_t lane_token);
  void lane_loop(uint64_t lane_token);
  size_t lane_target() const;  // min(pool_target, server quota)
  /// Connect + handshake the primary session (kBusy answered with a
  /// backoff-and-retry loop bounded by max_retries). Fills transport_/
  /// garbler_, the quota, and the lane attach info.
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

  std::vector<synth::ServedStage> stages_;  // served stages, chains walked
  uint64_t fingerprint_ = 0;    // served_fingerprint, sent in every hello
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

  // Shared between the caller thread and the lane thread, all under
  // mu_ (see the file header).
  mutable std::mutex mu_;
  std::condition_variable lane_cv_;    // wakes the lane: refill wanted
  std::condition_variable caught_up_;  // wakes prefetch(): lane pushed
  /// Remainders of pushed artifacts, oldest first. The lane (or, in
  /// sync mode, the caller) appends; the caller consumes.
  std::deque<PrefetchedMaterial> prefetched_;
  /// A pooled inference has consumed its artifact and not yet read its
  /// result: the server may still count that artifact's store slot.
  bool pooled_in_flight_ = false;
  /// Pushed artifacts' ids. Only the pushing thread touches it: the
  /// lane in async mode, the caller in sync mode.
  uint64_t next_material_id_ = 1;
  bool lane_stop_ = false;
  bool lane_up_ = false;  // attached and serving
  std::exception_ptr lane_error_;

  // Lane connection: owned here, written only by lane_thread_. The
  // buffered channel is destroyed before the transports under it.
  std::unique_ptr<TcpChannel> lane_transport_;
  std::unique_ptr<FaultChannel> lane_fault_;
  std::unique_ptr<BufferedChannel> lane_ch_;
  std::thread lane_thread_;

  uint64_t server_prefetch_quota_ = 0;  // advertised in the hello ack
  uint16_t lane_port_ = 0;    // lane attach info from the latest ack
  uint64_t lane_token_ = 0;   // (single-use: refreshed per handshake)
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
};

}  // namespace deepsecure::runtime
