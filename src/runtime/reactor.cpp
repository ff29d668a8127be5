#include "runtime/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "obs/trace.h"
#include "runtime/frame.h"

namespace deepsecure::runtime {
namespace {

// epoll_event.data tags for the non-connection fds. Conn pointers are
// heap-aligned, so they can never collide with these small sentinels.
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kListenerTag = 2;
constexpr uint64_t kLaneListenerTag = 3;

}  // namespace

EventCore::EventCore(InferenceServer& srv)
    : srv_(srv),
      c_rearms_(srv.metrics_.counter("reactor.rearms")),
      c_timer_evictions_(srv.metrics_.counter("reactor.timer_evictions")),
      c_listener_gated_(srv.metrics_.counter("reactor.listener_gated")),
      c_listener_gated_ns_(srv.metrics_.counter("reactor.listener_gated_ns")),
      g_queue_depth_(srv.metrics_.gauge("reactor.queue_depth")),
      h_dispatch_(srv.metrics_.histogram("phase.dispatch")),
      h_parked_(srv.metrics_.histogram("phase.parked")) {}

EventCore::~EventCore() { stop(); }

void EventCore::start() {
  ep_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep_ < 0) throw std::runtime_error("reactor: epoll_create1 failed");
  wakefd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakefd_ < 0) {
    ::close(ep_);
    ep_ = -1;
    throw std::runtime_error("reactor: eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  (void)::epoll_ctl(ep_, EPOLL_CTL_ADD, wakefd_, &ev);

  srv_.listener_.set_nonblocking(true);
  srv_.lane_listener_.set_nonblocking(true);
  arm_listener(/*lane=*/false, /*on=*/true);
  arm_listener(/*lane=*/true, /*on=*/true);

  const uint64_t idle_ms = srv_.cfg_.idle_timeout_ms;
  const uint64_t phase_ms = srv_.cfg_.phase_timeout_ms;
  if (idle_ms > 0 || phase_ms > 0) {
    // Wheel resolution: ≤ ~1/64 of the shortest enabled timeout (an
    // eviction lands at timeout..timeout+2 ticks, never early),
    // minimum 1 ms. Idle and phase entries share one wheel.
    const uint64_t base = (idle_ms > 0 && phase_ms > 0)
                              ? std::min(idle_ms, phase_ms)
                              : std::max(idle_ms, phase_ms);
    tick_ms_ = std::max<uint64_t>(1, base / 64);
    if (idle_ms > 0)
      timeout_ticks_ = (idle_ms + tick_ms_ - 1) / tick_ms_ + 1;
    if (phase_ms > 0) phase_ticks_ = (phase_ms + tick_ms_ - 1) / tick_ms_ + 1;
    wheel_.assign(std::max(timeout_ticks_, phase_ticks_) + 2, {});
  }
  epoch_ = std::chrono::steady_clock::now();

  // 2 × hardware_concurrency workers, minimum 2 so a session and its
  // prefetch lane can always progress concurrently.
  const unsigned hc = std::thread::hardware_concurrency();
  const size_t n =
      std::max<size_t>(2, 2 * static_cast<size_t>(hc == 0 ? 1 : hc));
  started_ = true;
  stopping_ = false;
  workers_stop_ = false;
  loop_thread_ = std::thread([this] { loop(); });
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void EventCore::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  // Stop accepting, then force every live connection through the normal
  // worker teardown path: the loop shuts parked transports down on each
  // pass (sticky — a later re-park sees immediate readiness) and exits
  // once the connection table is empty.
  srv_.listener_.close();
  srv_.lane_listener_.close();
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lk(mu_);
    workers_stop_ = true;
  }
  ready_cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  if (wakefd_ >= 0) ::close(wakefd_);
  if (ep_ >= 0) ::close(ep_);
  wakefd_ = -1;
  ep_ = -1;
  started_ = false;
}

void EventCore::wake() {
  if (wakefd_ < 0) return;
  const uint64_t one = 1;
  ssize_t r;
  do {
    r = ::write(wakefd_, &one, sizeof(one));
  } while (r < 0 && errno == EINTR);
}

uint64_t EventCore::elapsed_ms() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

// ---------------------------------------------------------------------
// Loop side.

void EventCore::arm_listener(bool lane, bool on) {
  TcpListener& l = lane ? srv_.lane_listener_ : srv_.listener_;
  bool& armed = lane ? lane_listener_armed_ : listener_armed_;
  if (armed == on || l.fd() < 0) return;
  if (on) {
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered: fires while backlog nonempty
    ev.data.u64 = lane ? kLaneListenerTag : kListenerTag;
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, l.fd(), &ev) == 0) armed = true;
  } else {
    (void)::epoll_ctl(ep_, EPOLL_CTL_DEL, l.fd(), nullptr);
    armed = false;
  }
}

void EventCore::accept_drain(bool lane) {
  TcpListener& l = lane ? srv_.lane_listener_ : srv_.listener_;
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) return;
    }
    if (!lane &&
        srv_.sessions_active_.load() >= srv_.cfg_.max_sessions) {
      if (srv_.cfg_.shed_on_overload) {
        // Shed: accept the connection just long enough to say kBusy
        // (with a retry-after hint) so the client backs off and
        // retries, instead of queueing silently in the backlog.
        try {
          std::optional<TcpChannel> t = l.try_accept();
          if (!t.has_value()) return;  // backlog drained
          srv_.c_sessions_shed_.add();
          try {
            send_busy(*t, srv_.cfg_.busy_retry_after_ms);
          } catch (...) {
          }
        } catch (...) {
          arm_listener(lane, /*on=*/false);
          return;
        }
        continue;
      }
      // Full: gate the listener instead of accepting past the cap.
      // Excess clients wait in the listen backlog; a session teardown
      // wakes the loop to re-arm below.
      arm_listener(/*lane=*/false, /*on=*/false);
      if (listener_gated_since_ == 0) {
        listener_gated_since_ = obs::now_ns();
        c_listener_gated_.add();
      }
      return;
    }
    std::unique_ptr<TcpChannel> transport;
    try {
      std::optional<TcpChannel> t = l.try_accept();
      if (!t.has_value()) return;  // backlog drained
      transport = std::make_unique<TcpChannel>(std::move(*t));
    } catch (...) {
      arm_listener(lane, /*on=*/false);  // listener closed or broken
      return;
    }

    auto c = std::make_unique<Conn>();
    c->is_lane = lane;
    c->stage = lane ? Stage::kLaneAttach : Stage::kHandshake;
    c->transport = std::move(transport);
    c->transport->set_nonblocking(true);
    // Bound mid-exchange stalls with the same deadline the timer wheel
    // applies to parked conns (poll deadline in nonblocking mode).
    if (srv_.cfg_.idle_timeout_ms > 0)
      c->transport->set_recv_timeout_ms(srv_.cfg_.idle_timeout_ms);
    if (srv_.cfg_.chaos.enabled())
      c->fault = std::make_unique<FaultChannel>(
          *c->transport, srv_.cfg_.chaos, srv_.chaos_index_.fetch_add(1),
          [t = c->transport.get()] { t->shutdown(); });
    Channel& wire = c->fault != nullptr ? static_cast<Channel&>(*c->fault)
                                        : static_cast<Channel&>(*c->transport);
    c->ch = std::make_unique<BufferedChannel>(wire);
    c->accept_ns = obs::now_ns();
    if (!lane) {
      srv_.c_sessions_accepted_.add();
      srv_.sessions_active_.fetch_add(1);
    }
    Conn* raw = c.get();
    {
      std::lock_guard<std::mutex> lk(mu_);
      raw->id = next_conn_id_++;
      conns_.emplace(raw->id, std::move(c));
    }
    // Park immediately: the client speaks first on both connection
    // kinds (kHello / kAttachLane), so the first readiness event starts
    // the state machine.
    if (!park(raw)) teardown(raw);
  }
}

void EventCore::advance_timers() {
  if (tick_ms_ == 0) return;
  const uint64_t now_tick = elapsed_ms() / tick_ms_;
  std::lock_guard<std::mutex> lk(mu_);
  while (current_tick_ < now_tick) {
    ++current_tick_;
    auto& bucket = wheel_[current_tick_ % wheel_.size()];
    for (const WheelEntry& e : bucket) {
      --timers_live_;
      const auto it = conns_.find(e.id);
      if (it == conns_.end()) continue;           // conn already gone
      Conn* c = it->second.get();
      if (e.phase) {
        // Phase deadline, armed at dispatch: fires only if the worker
        // STILL owns the conn at that generation (a park bumped the
        // gen, cancelling it). Shutdown breaks the in-flight recv/send
        // so the owning worker's teardown path runs — nothing is
        // destroyed from this thread.
        if (c->parked || c->park_gen != e.gen) continue;
        srv_.c_phase_timeouts_.add();
        c->transport->shutdown();
        continue;
      }
      if (!c->parked || c->park_gen != e.gen) continue;  // was resumed
      // Evict: shutdown makes the parked fd readable, and the worker
      // that picks up the event runs the one true teardown path —
      // budget settlement included, nothing destroyed cross-thread.
      c_timer_evictions_.add();
      c->transport->shutdown();
    }
    bucket.clear();
  }
}

int EventCore::epoll_timeout_ms() {
  if (tick_ms_ == 0) return -1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (timers_live_ == 0) return -1;
  }
  const uint64_t next = (current_tick_ + 1) * tick_ms_;
  const uint64_t now = elapsed_ms();
  return next > now ? static_cast<int>(std::min<uint64_t>(next - now, 1000))
                    : 0;
}

void EventCore::loop() {
  epoll_event evs[64];
  for (;;) {
    const int n = ::epoll_wait(ep_, evs, 64, epoll_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd dead: nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = evs[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t v;
        while (::read(wakefd_, &v, sizeof(v)) == sizeof(v)) {
        }
      } else if (tag == kListenerTag) {
        accept_drain(/*lane=*/false);
      } else if (tag == kLaneListenerTag) {
        accept_drain(/*lane=*/true);
      } else {
        // EPOLLONESHOT delivered: ownership of the conn moves from the
        // epoll set to the worker pool.
        Conn* c = reinterpret_cast<Conn*>(tag);
        std::lock_guard<std::mutex> lk(mu_);
        c->parked = false;
        ++c->park_gen;  // cancel the pending idle timer
        if (phase_ticks_ > 0) {
          // Per-phase deadline: the worker about to serve this burst
          // must finish (and park, bumping the gen) before it fires.
          wheel_[(current_tick_ + phase_ticks_) % wheel_.size()].push_back(
              WheelEntry{c->id, c->park_gen, /*phase=*/true});
          ++timers_live_;
        }
        c->ready_ns = obs::now_ns();
        g_queue_depth_.add(1);
        ready_.push_back(c);
        ready_cv_.notify_one();
      }
    }
    advance_timers();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) {
        // Force-drain: break every remaining conn (idempotent) and let
        // workers tear them down; the table emptying is the exit
        // condition, so no session can be dropped without settlement.
        for (auto& [id, c] : conns_) c->transport->shutdown();
        if (conns_.empty()) return;
      } else if (!listener_armed_ &&
                 srv_.sessions_active_.load() < srv_.cfg_.max_sessions) {
        arm_listener(/*lane=*/false, /*on=*/true);
        if (listener_gated_since_ != 0) {
          c_listener_gated_ns_.add(obs::now_ns() - listener_gated_since_);
          listener_gated_since_ = 0;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Worker side.

void EventCore::worker_loop() {
  for (;;) {
    Conn* c = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      ready_cv_.wait(lk, [this] { return workers_stop_ || !ready_.empty(); });
      if (ready_.empty()) return;  // workers_stop_ and nothing left
      c = ready_.front();
      ready_.pop_front();
      g_queue_depth_.sub(1);
    }
    process(c);
  }
}

bool EventCore::park(Conn* c) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
  ev.data.u64 = reinterpret_cast<uint64_t>(c);
  bool first_timer = false;
  {
    // The re-arm itself stays under mu_: once epoll_ctl succeeds, the
    // next readiness event hands the conn to another worker, and the
    // loop's mu_ acquisition at dispatch must order every write this
    // worker made to it (an EPOLL_CTL_MOD is no synchronization edge of
    // its own, for the language memory model or for TSan).
    std::lock_guard<std::mutex> lk(mu_);
    c->parked = true;
    const uint64_t gen = ++c->park_gen;  // also cancels the phase timer
    if (timeout_ticks_ > 0) {
      wheel_[(current_tick_ + timeout_ticks_) % wheel_.size()].push_back(
          WheelEntry{c->id, gen});
      first_timer = (timers_live_++ == 0);
    }
    c->parked_at_ns = obs::now_ns();
    const int op = c->registered ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
    if (c->registered) c_rearms_.add();
    c->registered = true;
    if (::epoll_ctl(ep_, op, c->transport->fd(), &ev) != 0) return false;
  }
  // The loop may be sleeping with an infinite epoll timeout; the first
  // live timer needs it to start ticking.
  if (first_timer) wake();
  return true;
}

void EventCore::teardown(Conn* c) {
  // Protocol settlement first: token out of the map so no new lane
  // resolves this session, then the whole remaining budget reservation
  // (stored artifacts + pushes still in flight on a lane) returned in
  // one settlement. A lane mid-push observes `closed` afterwards and
  // knows not to settle again.
  if (!c->is_lane) {
    if (c->token_registered) srv_.unregister_lane_token(c->lane_token);
    if (c->state != nullptr) srv_.settle_session_state(*c->state);
  } else if (c->state != nullptr) {
    // Lane teardown: allow a reconnect — a dropped lane (idle timeout,
    // transient network failure) should not permanently demote the
    // session to synchronous prefetching. The session's artifacts and
    // reservations live in the shared state, settled by the session.
    std::lock_guard<std::mutex> lk(c->state->mu);
    c->state->lane_attached = false;
  }
  const bool was_session = !c->is_lane;
  if (c->accept_ns != 0) {
    obs::Histogram& wall =
        was_session ? srv_.h_session_wall_ : srv_.h_lane_wall_;
    wall.observe(obs::now_ns() - c->accept_ns);
  }
  if (was_session) {
    srv_.h_session_bytes_in_.observe(c->transport->bytes_received());
    srv_.h_session_bytes_out_.observe(c->transport->bytes_sent());
  }
  srv_.c_bytes_in_.add(c->transport->bytes_received());
  srv_.c_bytes_out_.add(c->transport->bytes_sent());
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns_.erase(c->id);  // destroys the conn, closes the fd
  }
  if (was_session) srv_.sessions_active_.fetch_sub(1);
  // A freed slot may re-arm the gated listener; during stop the loop is
  // waiting for the table to empty.
  wake();
}

void EventCore::process(Conn* c) {
  // Account the gap since the last park: park → readiness is the
  // connection's idle (client-side) time, readiness → here is scheduler
  // dispatch latency. Together with the serve phases below they cover
  // the conn's whole parked lifetime, which is what lets stats_json()
  // explain a session's wall time under the event core.
  const uint64_t t_pick = obs::now_ns();
  if (c->parked_at_ns != 0 && c->ready_ns >= c->parked_at_ns) {
    h_parked_.observe(c->ready_ns - c->parked_at_ns);
    obs::trace_interval("reactor.parked", c->parked_at_ns,
                        c->ready_ns - c->parked_at_ns);
    c->parked_at_ns = 0;
  }
  if (c->ready_ns != 0 && t_pick >= c->ready_ns) {
    h_dispatch_.observe(t_pick - c->ready_ns);
    obs::trace_interval("reactor.dispatch", c->ready_ns, t_pick - c->ready_ns);
  }
  bool open = true;
  bool more = false;
  try {
    switch (c->stage) {
      case Stage::kHandshake:
        open = do_handshake(*c);
        break;
      case Stage::kLaneAttach:
        open = do_lane_attach(*c);
        break;
      default:
        more = true;  // readiness fired on an open conn: a frame awaits
        break;
    }
    if (open) more = more || c->ch->recv_buffered() > 0;
    // Serve until the user-space read-ahead is dry. Epoll cannot see
    // bytes BufferedChannel already pulled out of the kernel, so
    // re-parking with buffered frames would stall them until the next
    // wire byte; kernel-buffered bytes are covered by the level-
    // triggered re-arm (EPOLL_CTL_MOD redelivers while readable).
    while (open && more) {
      open = c->stage == Stage::kOpen ? serve_session_frame(*c)
                                      : serve_lane_frame(*c);
      more = c->ch->recv_buffered() > 0;
    }
  } catch (const std::exception& e) {
    // Garbage frames, a phase deadline mid-exchange, or a vanished
    // peer: tell the client WHY (best effort — the transport may
    // already be dead) instead of a raw disconnect, then drop the
    // connection and keep serving.
    try {
      send_error(*c->ch, ErrorCode::kMalformed, e.what());
      c->ch->flush();
    } catch (...) {
    }
    open = false;
  } catch (...) {
    open = false;
  }
  if (!open || !park(c)) teardown(c);
}

bool EventCore::do_handshake(Conn& c) {
  // The wait for the hello is NOT in here — the conn was parked until
  // the hello's bytes arrived (phase.parked), so this phase is pure
  // handshake work.
  const uint64_t t0 = obs::now_ns();
  obs::Span span("server.handshake");
  const Hello hello = parse_hello(recv_frame(*c.ch));
  const char* reject = srv_.validate_hello(hello);
  if (reject != nullptr) {
    srv_.c_sessions_rejected_.add();
    send_error(*c.ch, ErrorCode::kHandshake, reject);
    c.ch->flush();
    srv_.h_handshake_.observe(obs::now_ns() - t0);
    return false;
  }
  c.state = std::make_shared<InferenceServer::SessionState>();
  // Token registered before the ack ships so a racing kAttachLane can
  // never observe an unregistered token.
  c.lane_token = srv_.register_lane_token(c.state);
  c.token_registered = true;
  HelloAck ack;
  ack.fingerprint = srv_.fingerprint_;
  ack.prefetch_quota = srv_.cfg_.max_prefetch;
  ack.lane_token = c.lane_token;
  ack.lane_port = srv_.lane_listener_.port();
  send_hello_ack(*c.ch, ack);
  c.ch->flush();
  // One EvaluatorSession (one OT setup) serves every inference of the
  // session — the streaming amortization the paper's Figure 6 assumes.
  c.session = std::make_unique<EvaluatorSession>(*c.ch, served_gc_options());
  c.stage = Stage::kOpen;
  srv_.h_handshake_.observe(obs::now_ns() - t0);
  return true;
}

bool EventCore::do_lane_attach(Conn& c) {
  const Frame attach = recv_frame(*c.ch);
  uint64_t token = 0;
  const char* reject = nullptr;
  ErrorCode code = ErrorCode::kLane;
  if (attach.type != FrameType::kAttachLane) {
    reject = "expected lane attach";
    code = ErrorCode::kMalformed;
  } else {
    token = parse_id(attach);
    c.state = srv_.attach_lane(token, &reject);
  }
  if (reject != nullptr) {
    srv_.c_lanes_rejected_.add();
    c.state = nullptr;  // nothing to detach at teardown
    send_error(*c.ch, code, reject);
    c.ch->flush();
    return false;
  }
  srv_.c_lanes_attached_.add();
  send_id_frame(*c.ch, FrameType::kAttachLaneAck, token);
  c.ch->flush();
  // A push runs no OT, so the lane needs no session.
  c.stage = Stage::kLaneOpen;
  return true;
}

bool EventCore::serve_session_frame(Conn& c) {
  // Usually satisfied from read-ahead; a partially-arrived frame waits
  // here.
  const uint64_t t_wait = obs::now_ns();
  obs::Span wait_span("server.recv_wait");
  const Frame f = recv_frame(*c.ch);
  wait_span.end();
  srv_.h_recv_wait_.observe(obs::now_ns() - t_wait);
  switch (f.type) {
    case FrameType::kInfer:
      return srv_.handle_infer_frame(f, *c.ch, *c.session, *c.state);
    case FrameType::kPrefetch:
      return srv_.handle_prefetch_push(f, *c.ch, *c.state);
    case FrameType::kStats: {
      const std::string stats = srv_.stats_json();
      send_frame(*c.ch, FrameType::kStatsReply, stats.data(), stats.size());
      c.ch->flush();
      return true;
    }
    case FrameType::kBye:
      return false;
    default:
      send_error(*c.ch, ErrorCode::kMalformed, "unexpected frame in session loop");
      c.ch->flush();
      return false;
  }
}

bool EventCore::serve_lane_frame(Conn& c) {
  const uint64_t t_wait = obs::now_ns();
  obs::Span wait_span("server.recv_wait");
  const Frame f = recv_frame(*c.ch);
  wait_span.end();
  srv_.h_recv_wait_.observe(obs::now_ns() - t_wait);
  if (f.type == FrameType::kBye) return false;
  if (f.type == FrameType::kPrefetch)
    return srv_.handle_prefetch_push(f, *c.ch, *c.state);
  send_error(*c.ch, ErrorCode::kMalformed, "unexpected frame on prefetch lane");
  c.ch->flush();
  return false;
}

}  // namespace deepsecure::runtime
