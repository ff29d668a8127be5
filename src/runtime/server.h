// Multi-session secure-inference server — the deployment shape the
// paper's scalability story implies: the model owner (Bob, evaluator)
// loads one model, compiles its GC chain once into the walked views it
// keeps (walk_chain, circuit/schedule.h), and serves many concurrent
// client sessions over TCP, each with its own channel, OT setup, and
// per-session label seeds on the client side.
//
// The serving engine is an epoll reactor + small worker pool
// (runtime/reactor.h). Connections are nonblocking and parked in the
// epoll set between frames; a readiness event hands the connection to a
// worker, which resumes its per-session state machine (handshake → lane
// attach → prefetch/infer frames) and re-parks it. Thread count is
// workers + 1 (the loop), independent of session count; idle and
// per-phase deadlines run on a timer wheel in the loop.
//
// Concurrent sessions are capped at `max_sessions` (excess clients
// queue in the listen backlog instead of being dropped) and share the
// walked chain read-only: each view is its own schedule, and the
// per-circuit flush-point cache is thread-safe (see
// Circuit::gc_flush_points).
//
// Async prefetch lane (protocol v4): a SECOND listener accepts
// dedicated prefetch connections. The hello ack hands each session an
// unguessable lane token + the lane port; a client that opens a lane
// (kAttachLane) streams kPrefetch pushes there while kInfer traffic
// continues on the primary connection — the refill no longer stalls the
// inference pipeline. Both connections share one SessionState (the
// artifact store and its budget accounting), which is also the single
// place global max_prefetch_bytes reservations are made and released,
// so every error/teardown path settles the budget exactly once. Lanes
// do not count against max_sessions (they are bounded at one per
// session by the single-use token), so a full server never deadlocks a
// client opening its lane.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/prg.h"
#include "net/fault_channel.h"
#include "net/tcp_channel.h"
#include "obs/metrics.h"
#include "runtime/frame.h"
#include "runtime/streaming.h"
#include "synth/layer_circuits.h"

namespace deepsecure::runtime {

class EventCore;

struct ServerConfig {
  uint16_t port = 0;        // 0 = ephemeral (read back via port())
  size_t max_sessions = 8;  // concurrent session cap
  /// Per-session cap on stored prefetched artifacts (offline/online
  /// split): bounds the memory a client can park on the server at
  /// roughly max_prefetch × table bytes per session.
  size_t max_prefetch = 8;
  /// Global byte budget for prefetched table streams across ALL
  /// sessions (0 = unbounded). The per-session quota alone scales
  /// linearly with session count; under thousands of sessions this cap
  /// is what actually protects server memory. Reserved at push time
  /// (the artifact size is fixed by the compiled chain), released when
  /// the artifact is consumed or its session ends; a push that would
  /// exceed the budget is rejected like a quota violation.
  uint64_t max_prefetch_bytes = uint64_t{1} << 30;
  /// Per-session idle timeout in milliseconds; 0 disables. A session
  /// whose client sends nothing for this long is dropped so a stalled
  /// client cannot pin one of the max_sessions slots forever. The
  /// timeout bounds *every* receive and cannot tell "stalled" from
  /// "thinking" — set it above the worst-case client-side gap,
  /// including offline garbling before a cold-pool prefetch. Enforced
  /// by the reactor's timer wheel for parked connections and by the
  /// transport's poll deadline for mid-exchange stalls.
  uint64_t idle_timeout_ms = 0;
  /// Per-phase protocol deadline in milliseconds; 0 disables. Where
  /// idle_timeout_ms bounds the wait BETWEEN frames, this bounds the
  /// time a connection may spend INSIDE serving one dispatch (mid-OT,
  /// mid-push, mid-eval) — a peer that stalls halfway through a
  /// protocol exchange cannot pin a worker slot past this deadline.
  /// Must exceed the worst-case legitimate exchange (an on-demand
  /// garble + transfer takes hundreds of ms on big chains). Armed on
  /// the reactor's timer wheel when a connection is dispatched to a
  /// worker; firing shuts the transport down mid-exchange.
  uint64_t phase_timeout_ms = 0;
  /// Graceful shed (protocol v6): when true, a connection arriving with
  /// all max_sessions slots busy is accepted, told kBusy (with
  /// busy_retry_after_ms as the hint) and closed — instead of the
  /// default silent wait in the listen backlog. Off by default: backlog
  /// queueing is the right shape for closed-loop benches; shedding is
  /// for open-loop overload where queues only add latency.
  bool shed_on_overload = false;
  uint32_t busy_retry_after_ms = 50;
  /// Server-side deterministic fault injection (net/fault_channel.h):
  /// when enabled, every accepted transport is wrapped in a
  /// FaultChannel. Used by robustness tests; rate 0 (default) leaves
  /// the healthy path untouched.
  FaultConfig chaos;
  /// Reactor worker threads; 0 = auto (2 × hardware_concurrency,
  /// minimum 2 so a session and its prefetch lane can always progress
  /// concurrently).
  size_t workers = 0;
  /// Listen backlog for both listeners. A full server parks excess
  /// clients here, so size it for the expected connection burst.
  int backlog = 64;
  StreamConfig stream;
};

class InferenceServer {
 public:
  /// Compiles `spec` into the per-layer chain once; `weights` are the
  /// server's private parameter bits in evaluator-input order (see
  /// weight_bits() in core/deepsecure.h).
  InferenceServer(const synth::ModelSpec& spec, BitVec weights,
                  ServerConfig cfg = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Port actually bound (resolves ephemeral port 0).
  uint16_t port() const { return listener_.port(); }
  /// Dedicated async-prefetch-lane listener port (always ephemeral; the
  /// hello ack advertises it, so clients never need to configure it).
  uint16_t lane_port() const { return lane_listener_.port(); }

  /// Spawn the reactor and its workers. Returns immediately.
  void start();

  /// Close the listeners, drain every live connection through its normal
  /// teardown, join all threads. Idempotent.
  void stop();

  // Serving counters live in this server's private metrics registry
  // (src/obs/metrics.h); these accessors are thin reads of the sharded
  // counters, per-instance exact, same semantics as the former ad-hoc
  // atomics.
  uint64_t sessions_accepted() const { return c_sessions_accepted_.value(); }
  uint64_t sessions_active() const { return sessions_active_.load(); }
  uint64_t inferences_served() const { return c_inferences_served_.value(); }
  uint64_t sessions_rejected() const { return c_sessions_rejected_.value(); }
  /// Of inferences_served, how many ran the online phase against
  /// prefetched material (the rest garbled on demand).
  uint64_t inferences_pooled() const { return c_inferences_pooled_.value(); }
  uint64_t materials_prefetched() const {
    return c_materials_prefetched_.value();
  }
  /// Bytes currently reserved against max_prefetch_bytes.
  uint64_t prefetch_bytes() const { return prefetch_bytes_.load(); }
  /// kPrefetch pushes rejected because the global budget was exhausted.
  uint64_t prefetches_rejected() const {
    return c_prefetches_rejected_.value();
  }
  /// Prefetch lanes successfully attached to a session (v4).
  uint64_t lanes_attached() const { return c_lanes_attached_.value(); }
  /// kAttachLane attempts rejected (unknown/stale/duplicate token).
  uint64_t lanes_rejected() const { return c_lanes_rejected_.value(); }
  /// Connections turned away with kBusy under shed_on_overload (v6).
  uint64_t sessions_shed() const { return c_sessions_shed_.value(); }
  /// Connections dropped by the per-phase protocol deadline.
  uint64_t phase_timeouts() const { return c_phase_timeouts_.value(); }

  /// This server's full observability surface as one JSON object:
  /// {"sessions_active","prefetch_bytes","hash_backend",
  ///  "cpu_features","accounting":{...},"chain":{...},"resilience":{...},
  ///  "metrics":{counters,gauges,hists}}. The chain block, fixed at
  /// construction, sizes the one netlist the server holds — its largest
  /// allocation: {"circuits","gates","and_gates","label_slots" (sum of
  /// the walked views' num_wires),"netlist_bytes" (gate lists plus
  /// interface vectors)}. The accounting block sums the
  /// non-overlapping per-phase histograms (handshake, recv_wait,
  /// infer_*, prefetch_push, parked, dispatch) against session_wall, so
  /// a scaling sweep can say WHERE each session-second went — the
  /// fraction is meaningful once sessions have completed (live sessions
  /// have phases recorded but no wall yet). Safe to call any time from
  /// any thread (relaxed snapshot; see obs/metrics.h).
  std::string stats_json() const;

  /// Direct registry access (tests, exporters). The registry outlives
  /// every session; instrument handles in it are stable.
  const obs::Registry& metrics() const { return metrics_; }

 private:
  friend class EventCore;  // the reactor drives the same protocol state

  // Per-session state shared between the primary session connection and
  // its (optional) async prefetch lane — the seam both connections
  // synchronize on. `reserved_bytes` mirrors this session's share of
  // the global prefetch_bytes_ reservation so teardown can settle it
  // exactly once; `pending_pushes` holds quota slots for pushes whose
  // material is still in flight on the wire.
  struct SessionState {
    std::mutex mu;
    std::unordered_map<uint64_t, EvalMaterial> store;
    uint64_t reserved_bytes = 0;
    size_t pending_pushes = 0;
    bool closed = false;         // primary session torn down
    bool lane_attached = false;  // at most one lane per session
  };

  // --- protocol steps the reactor drives -----------------------------
  /// Handshake validation; nullptr = accept, else the kError reason.
  const char* validate_hello(const Hello& hello) const;
  /// One kInfer frame (on-demand or pooled). Returns false when the
  /// connection must close (kError already sent).
  bool handle_infer_frame(const Frame& f, BufferedChannel& ch,
                          EvaluatorSession& session, SessionState& state);
  /// One kPrefetch push into `state` (primary connection or lane):
  /// quota + global-budget reservation, artifact receive + size checks,
  /// precomputed-OT label resolution, store. Returns false when the
  /// carrying connection must close (every rejection sent a kError);
  /// on failure the reservation is released immediately — never parked
  /// until teardown.
  bool handle_prefetch_push(const Frame& f, BufferedChannel& ch,
                            EvaluatorSession& session, SessionState& state);
  /// Issue + register a fresh unguessable lane token for `state`.
  uint64_t register_lane_token(const std::shared_ptr<SessionState>& state);
  void unregister_lane_token(uint64_t token);
  /// Resolve a kAttachLane token and mark the session's lane attached.
  /// nullptr on failure with `*reject` set (metrics are the caller's).
  std::shared_ptr<SessionState> attach_lane(uint64_t token,
                                            const char** reject);
  /// Session teardown: close the shared state and return the WHOLE
  /// remaining budget reservation (stored artifacts + in-flight pushes)
  /// in one settlement. A lane mid-push observes `closed` afterwards
  /// and knows not to settle again.
  void settle_session_state(SessionState& state);

  std::vector<Circuit> chain_;
  BitVec weights_;
  ServerConfig cfg_;
  uint64_t fingerprint_ = 0;
  std::string chain_json_;  // stats_json's "chain" block, fixed at set-up
  // Exact size of a well-formed artifact's table stream for chain_
  // (consts + half-gate tables per circuit): prefetches that disagree
  // are rejected at push time, not at kInfer time.
  uint64_t expected_table_bytes_ = 0;

  TcpListener listener_;
  TcpListener lane_listener_;
  std::unique_ptr<EventCore> event_core_;
  std::mutex mu_;  // guards running_, lane_tokens_ and token_prg_
  // Live sessions by lane token; a lane attach resolves its session
  // here. Entries die with their session (session teardown erases).
  std::unordered_map<uint64_t, std::shared_ptr<SessionState>> lane_tokens_;
  Prg token_prg_ = Prg::from_os_entropy();  // under mu_
  bool running_ = false;

  // --- observability -------------------------------------------------
  // Per-instance registry (exact per-server counts for tests and serial
  // bench runs). Handles are resolved once here; hot paths touch only
  // the cached references. Two atomics deliberately stay OUTSIDE the
  // registry because they are control variables, not telemetry:
  // prefetch_bytes_ needs fetch_add's atomic read-back for the global
  // budget check, and sessions_active_ gates max_sessions — sharded
  // cells cannot express either.
  obs::Registry metrics_;
  obs::Counter& c_sessions_accepted_ =
      metrics_.counter("server.sessions_accepted");
  obs::Counter& c_inferences_served_ =
      metrics_.counter("server.inferences_served");
  obs::Counter& c_sessions_rejected_ =
      metrics_.counter("server.sessions_rejected");
  obs::Counter& c_inferences_pooled_ =
      metrics_.counter("server.inferences_pooled");
  obs::Counter& c_materials_prefetched_ =
      metrics_.counter("server.materials_prefetched");
  obs::Counter& c_prefetches_rejected_ =
      metrics_.counter("server.prefetches_rejected");
  obs::Counter& c_lanes_attached_ = metrics_.counter("server.lanes_attached");
  obs::Counter& c_lanes_rejected_ = metrics_.counter("server.lanes_rejected");
  obs::Counter& c_sessions_shed_ = metrics_.counter("server.shed");
  obs::Counter& c_phase_timeouts_ = metrics_.counter("server.phase_timeouts");
  obs::Counter& c_bytes_in_ = metrics_.counter("server.bytes_in");
  obs::Counter& c_bytes_out_ = metrics_.counter("server.bytes_out");
  // Non-overlapping wall-time phases (ns observations); their sums vs
  // phase.session_wall form stats_json()'s accounting block.
  obs::Histogram& h_handshake_ = metrics_.histogram("phase.handshake");
  obs::Histogram& h_recv_wait_ = metrics_.histogram("phase.recv_wait");
  obs::Histogram& h_infer_ondemand_ =
      metrics_.histogram("phase.infer_ondemand");
  obs::Histogram& h_infer_online_ = metrics_.histogram("phase.infer_online");
  obs::Histogram& h_prefetch_push_ = metrics_.histogram("phase.prefetch_push");
  obs::Histogram& h_session_wall_ = metrics_.histogram("phase.session_wall");
  obs::Histogram& h_lane_wall_ = metrics_.histogram("phase.lane_wall");
  // Sub-phases nested inside the above (informational, not summed).
  obs::Histogram& h_ot_offline_ = metrics_.histogram("subphase.ot_offline");
  obs::Histogram& h_ot_online_ = metrics_.histogram("subphase.ot_online");
  obs::Histogram& h_eval_ = metrics_.histogram("subphase.eval");
  // Per-session transport byte totals (bytes observations).
  obs::Histogram& h_session_bytes_in_ =
      metrics_.histogram("server.session_bytes_in");
  obs::Histogram& h_session_bytes_out_ =
      metrics_.histogram("server.session_bytes_out");

  std::atomic<uint64_t> sessions_active_{0};
  std::atomic<uint64_t> prefetch_bytes_{0};
  // Per-connection index into the chaos fault plan (cfg_.chaos): each
  // accepted transport gets a distinct deterministic stream.
  std::atomic<uint64_t> chaos_index_{0};
};

}  // namespace deepsecure::runtime
