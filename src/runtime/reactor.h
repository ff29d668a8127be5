// Event-driven server core: an epoll reactor plus a small worker pool,
// the InferenceServer's serving engine. Scheduling is readiness-driven:
// total thread count is workers + 1 (the loop), independent of how many
// sessions are connected.
//
// Structure:
//
//   loop thread                         worker pool (≤ 2 × cores)
//   ───────────                         ─────────────────────────
//   epoll_wait ──┬─ listener readable → accept-drain, register conn
//                ├─ conn readable ────→ ready queue ─→ resume state
//                │                       machine: handshake / lane
//                │                       attach / serve frames; then
//                │                       re-park (EPOLLONESHOT re-arm)
//                ├─ eventfd ──────────→ re-check listener gating / stop
//                └─ timer wheel tick ─→ evict idle parked conns
//
// Per-connection state machine: kHandshake → kOpen (sessions) and
// kLaneAttach → kLaneOpen (prefetch lanes). Connections are
// EPOLLONESHOT — an event hands exclusive ownership of the connection
// to one worker, which serves frames with *blocking semantics over the
// nonblocking fd* (TcpChannel resumes short reads/writes via poll; see
// net/tcp_channel.h) and re-arms the fd when the frame burst is done.
// Before re-parking, the worker drains BufferedChannel user-space
// read-ahead (recv_buffered) — epoll cannot see bytes already pulled
// out of the kernel, so pipelined back-to-back frames would otherwise
// stall until the next wire byte.
//
// Deadlines: a hashed timer wheel in the loop (SO_RCVTIMEO would be
// ignored by nonblocking sockets). Idle entries are armed at park,
// per-phase entries at dispatch. Firing shuts the transport down and
// lets the resulting readiness event (or the owning worker's failed
// I/O) run the normal worker teardown path — the timer never destroys
// state cross-thread. Mid-exchange stalls are bounded separately by
// TcpChannel's poll deadline.
//
// Session gating: when sessions_active reaches max_sessions, the
// primary listener is removed from the epoll set — excess clients wait
// in the listen backlog — and re-added when a session ends.
//
// All protocol logic (handshake validation, infer/prefetch handling,
// budget settlement, lane tokens) lives in InferenceServer's private
// helpers; this file only schedules connections through them.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/server.h"

namespace deepsecure::runtime {

class EventCore {
 public:
  explicit EventCore(InferenceServer& srv);
  ~EventCore();

  EventCore(const EventCore&) = delete;
  EventCore& operator=(const EventCore&) = delete;

  /// Arm listeners, spawn the loop thread and the worker pool.
  void start();

  /// Drain every live connection through the normal teardown path
  /// (budget settled exactly once per session), then join all threads.
  /// Idempotent.
  void stop();

 private:
  enum class Stage { kHandshake, kOpen, kLaneAttach, kLaneOpen };

  // One connection's state machine. Ownership alternates between the
  // epoll set (parked) and exactly one worker (resumed) — never both,
  // enforced by EPOLLONESHOT. `parked`/`park_gen` are guarded by mu_;
  // everything else is touched only by the current owner, and each
  // handoff (park's re-arm → the loop's dispatch) passes through mu_.
  struct Conn {
    uint64_t id = 0;
    bool is_lane = false;
    Stage stage = Stage::kHandshake;
    std::unique_ptr<TcpChannel> transport;
    // Chaos decorator between transport and ch when cfg.chaos is
    // enabled (declared between them: ch drops its reference first,
    // then the fault layer, then the transport it wraps).
    std::unique_ptr<FaultChannel> fault;
    std::unique_ptr<BufferedChannel> ch;
    std::shared_ptr<InferenceServer::SessionState> state;
    uint64_t lane_token = 0;
    bool token_registered = false;
    std::unique_ptr<EvaluatorSession> session;  // references *ch
    bool registered = false;  // fd has been EPOLL_CTL_ADDed
    bool parked = false;      // armed in the epoll set
    uint64_t park_gen = 0;    // invalidates stale timer entries
    // Observability stamps (obs::now_ns): accept time for the session
    // wall, park time and readiness time for the parked/dispatch phases.
    uint64_t accept_ns = 0;
    uint64_t parked_at_ns = 0;
    uint64_t ready_ns = 0;
  };

  struct WheelEntry {
    uint64_t id = 0;
    uint64_t gen = 0;
    // Phase-deadline entry (armed at dispatch): fires while the conn is
    // still OWNED BY A WORKER at the same generation — the inverse of
    // an idle entry, which fires while the conn is still parked.
    bool phase = false;
  };

  // --- loop side ------------------------------------------------------
  void loop();
  void accept_drain(bool lane);
  void arm_listener(bool lane, bool on);
  void advance_timers();
  int epoll_timeout_ms();
  void wake();
  uint64_t elapsed_ms() const;

  // --- worker side ----------------------------------------------------
  void worker_loop();
  void process(Conn* c);
  bool do_handshake(Conn& c);
  bool do_lane_attach(Conn& c);
  bool serve_session_frame(Conn& c);
  bool serve_lane_frame(Conn& c);
  /// Re-arm the fd (EPOLLONESHOT) and schedule the idle timer.
  bool park(Conn* c);
  /// Settle protocol state, free the session slot, destroy the conn.
  void teardown(Conn* c);

  InferenceServer& srv_;

  // --- observability: handles into srv_.metrics_ (resolved once in the
  // constructor; hot paths never do name lookups) ----------------------
  obs::Counter& c_rearms_;           // EPOLLONESHOT re-arms (MOD only)
  obs::Counter& c_timer_evictions_;  // idle conns shut down by the wheel
  obs::Counter& c_listener_gated_;   // times the listener was gated
  obs::Counter& c_listener_gated_ns_;  // total gated duration
  obs::Gauge& g_queue_depth_;        // ready_ occupancy (loop → workers)
  obs::Histogram& h_dispatch_;       // readiness → worker pickup (ns)
  obs::Histogram& h_parked_;         // park → readiness (ns)
  // Loop-thread only: when != 0, the primary listener is currently
  // gated at max_sessions and this is the gating start time.
  uint64_t listener_gated_since_ = 0;

  int ep_ = -1;
  int wakefd_ = -1;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable ready_cv_;
  std::deque<Conn*> ready_;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;
  bool started_ = false;
  bool stopping_ = false;
  bool workers_stop_ = false;
  bool listener_armed_ = false;
  bool lane_listener_armed_ = false;

  // Hashed timer wheel (idle_timeout_ms or phase_timeout_ms > 0):
  // buckets of lazily cancelled {conn, generation} entries, one bucket
  // per tick. Idle entries (armed at park) and phase entries (armed at
  // dispatch) share the wheel; each kind is invalidated by the park_gen
  // bump of the opposite transition.
  uint64_t tick_ms_ = 0;  // 0 = timers disabled
  uint64_t timeout_ticks_ = 0;  // idle deadline, in ticks (0 = off)
  uint64_t phase_ticks_ = 0;    // per-phase deadline, in ticks (0 = off)
  uint64_t current_tick_ = 0;
  size_t timers_live_ = 0;
  std::vector<std::vector<WheelEntry>> wheel_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace deepsecure::runtime
