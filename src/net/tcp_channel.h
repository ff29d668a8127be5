// TCP transport: the same Channel interface as the in-memory pair, over
// a real socket — what an actual client/server deployment of the
// protocol uses (the paper's LAN testbed). Stream-oriented, with
// TCP_NODELAY so the request/response OT rounds are not delayed by
// Nagle batching.
//
// Two I/O modes:
//   * blocking (default): send/recv block in the kernel; a recv timeout
//     is enforced via SO_RCVTIMEO.
//   * nonblocking (set_nonblocking(true) — the event-driven server
//     core): the fd is O_NONBLOCK so it can park in an epoll set, and
//     send/recv keep their BLOCKING semantics at this API by resuming
//     short reads/writes after a poll() wait — EAGAIN never escapes.
//     The recv timeout is enforced as the poll deadline instead of
//     SO_RCVTIMEO (which nonblocking sockets ignore), and bounds a send
//     waiting on a peer that stopped reading the same way.
// Every syscall retries EINTR; a peer reset (EPIPE/ECONNRESET, or a
// clean FIN) surfaces as the same "peer closed connection" error the
// session handlers already treat as orderly teardown, never as an
// abort.
//
// TcpListener separates bind/listen from accept so a server can keep one
// listening socket and accept many client sessions (runtime/server.h);
// TcpChannel::listen_and_accept remains the one-shot convenience used by
// the two-party tests. For the reactor core the listener also exposes
// its fd, a nonblocking mode, and try_accept() (drain-until-EAGAIN).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "net/channel.h"

namespace deepsecure {

class TcpChannel final : public Channel {
 public:
  /// Server side: bind + listen on `port` (0 = ephemeral), accept one
  /// peer. `bound_port` receives the actual port before accept blocks.
  static TcpChannel listen_and_accept(uint16_t port,
                                      uint16_t* bound_port = nullptr);

  /// Client side: connect to host:port (retries briefly so tests can
  /// start both ends concurrently).
  static TcpChannel connect(const std::string& host, uint16_t port);

  TcpChannel(TcpChannel&& o) noexcept;
  TcpChannel& operator=(TcpChannel&&) = delete;
  ~TcpChannel() override;

  void send_bytes(const void* data, size_t n) override;
  void recv_bytes(void* data, size_t n) override;
  size_t recv_some(void* data, size_t min_n, size_t max_n) override;

  /// Shut both directions down without closing the fd. A thread blocked
  /// in recv on this channel wakes with a "peer closed" error — how the
  /// reactor evicts idle or deadline-expired connections and drains
  /// live ones at stop().
  void shutdown();

  /// Bound every receive: a recv that sees no bytes for `ms`
  /// milliseconds throws instead of blocking forever (SO_RCVTIMEO in
  /// blocking mode, the poll deadline in nonblocking mode). 0 restores
  /// the unbounded default. Backs the reactor's mid-exchange stall
  /// bound and client-side receive timeouts.
  void set_recv_timeout_ms(uint64_t ms);

  /// Switch the fd between blocking and O_NONBLOCK. In nonblocking
  /// mode this channel's send/recv calls keep blocking semantics by
  /// poll()-waiting on EAGAIN (see file header); the mode exists so the
  /// fd can be parked in an epoll set between frames.
  void set_nonblocking(bool on);

  /// Raw fd for readiness registration (epoll). Owned by this channel.
  int fd() const { return fd_; }

  uint64_t bytes_sent() const override { return sent_; }
  uint64_t bytes_received() const override { return received_; }
  void reset_counters() override {
    sent_ = 0;
    received_ = 0;
  }

 private:
  friend class TcpListener;
  explicit TcpChannel(int fd) : fd_(fd) {}

  /// poll() for `events` (POLLIN/POLLOUT); throws on timeout (the
  /// recv deadline bounds both directions) or poll failure. Used to
  /// resume nonblocking I/O.
  void wait_ready(short events);

  int fd_ = -1;
  bool nonblocking_ = false;
  uint64_t timeout_ms_ = 0;  // 0 = unbounded
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
};

/// Reusable listening socket bound to loopback. accept() yields one
/// connected TcpChannel per client; close() (from any thread) unblocks a
/// pending accept, which then throws — the server shutdown path.
class TcpListener {
 public:
  /// Bind + listen on `port` (0 = ephemeral) with the given backlog.
  explicit TcpListener(uint16_t port, int backlog = 16);
  TcpListener(TcpListener&& o) noexcept;
  TcpListener& operator=(TcpListener&&) = delete;
  ~TcpListener();

  uint16_t port() const { return port_; }
  /// Raw fd for readiness registration (epoll). -1 once closed.
  int fd() const { return fd_.load(); }

  /// O_NONBLOCK on the listening socket: accept() then fails with
  /// EAGAIN instead of blocking — use try_accept() to drain.
  void set_nonblocking(bool on);

  /// Block until a client connects. Throws std::runtime_error once the
  /// listener has been closed.
  TcpChannel accept();

  /// Nonblocking accept: one connected channel, or nullopt when the
  /// backlog is drained (EAGAIN). Retries EINTR/ECONNABORTED; throws
  /// once the listener is closed. The reactor's accept path.
  std::optional<TcpChannel> try_accept();

  /// Stop accepting: shuts the listening socket down (waking a blocked
  /// accept(), which then throws) but defers releasing the fd to the
  /// destructor so a racing accept() can never touch a recycled fd.
  /// Safe to call concurrently with accept() and idempotent.
  void close();

 private:
  // Atomic: close() runs from the server's stop path while the accept
  // thread is reading the fd.
  std::atomic<int> fd_{-1};
  uint16_t port_ = 0;
};

}  // namespace deepsecure
