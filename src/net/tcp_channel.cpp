#include "net/tcp_channel.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace deepsecure {
namespace {

// Process-wide TCP instruments (Registry::global()): aggregate across
// every channel. Resolved once via function-local statics so channel
// construction stays cheap.
obs::Counter& tcp_poll_resumes() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.tcp.poll_resumes");
  return c;
}
obs::Counter& tcp_bytes_in() {
  static obs::Counter& c = obs::Registry::global().counter("net.tcp.bytes_in");
  return c;
}
obs::Counter& tcp_bytes_out() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.tcp.bytes_out");
  return c;
}

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("tcp: " + what + ": " + std::strerror(errno));
}

// Peer-gone errnos, mapped to the one message every session handler
// already treats as clean teardown (never an abort): EPIPE/ECONNRESET
// on send, ECONNRESET on recv.
bool peer_gone(int err) {
  return err == EPIPE || err == ECONNRESET || err == ENOTCONN;
}

[[noreturn]] void throw_peer_closed() {
  throw std::runtime_error("tcp: peer closed connection");
}

void set_nodelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_fd_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) die("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) != 0) die("fcntl(F_SETFL)");
}

}  // namespace

TcpListener::TcpListener(uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket");
  fd_.store(fd);
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    die("bind");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    die("getsockname");
  port_ = ntohs(addr.sin_port);
  if (::listen(fd, backlog) != 0) die("listen");
}

TcpListener::TcpListener(TcpListener&& o) noexcept
    : fd_(o.fd_.exchange(-1)), port_(o.port_) {}

TcpListener::~TcpListener() {
  // No accept() may be in flight at destruction time (the owner joins
  // its accept thread first), so releasing the fd is safe here.
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    (void)::shutdown(fd, SHUT_RDWR);
    (void)::close(fd);
  }
}

void TcpListener::set_nonblocking(bool on) {
  const int fd = fd_.load();
  if (fd >= 0) set_fd_nonblocking(fd, on);
}

TcpChannel TcpListener::accept() {
  for (;;) {
    const int lfd = fd_.load();
    if (lfd < 0) throw std::runtime_error("tcp: accept on closed listener");
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return TcpChannel(fd);
    }
    // ECONNABORTED: the client reset while queued in the backlog — a
    // per-connection event, not a listener failure; keep accepting.
    if (errno == EINTR || errno == ECONNABORTED) continue;
    throw std::runtime_error("tcp: accept: listener closed or failed: " +
                             std::string(std::strerror(errno)));
  }
}

std::optional<TcpChannel> TcpListener::try_accept() {
  for (;;) {
    const int lfd = fd_.load();
    if (lfd < 0) throw std::runtime_error("tcp: accept on closed listener");
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return TcpChannel(fd);
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    if (errno == EINTR || errno == ECONNABORTED) continue;
    throw std::runtime_error("tcp: accept: listener closed or failed: " +
                             std::string(std::strerror(errno)));
  }
}

void TcpListener::close() {
  // Shutdown only — the fd stays allocated until the destructor, so a
  // concurrent accept() that already loaded the fd number cannot race
  // against the kernel recycling it for an unrelated socket. shutdown()
  // wakes a thread blocked in ::accept (EINVAL); later accepts fail the
  // same way.
  const int fd = fd_.load();
  if (fd >= 0) (void)::shutdown(fd, SHUT_RDWR);
}

TcpChannel TcpChannel::listen_and_accept(uint16_t port, uint16_t* bound_port) {
  TcpListener listener(port, /*backlog=*/1);
  if (bound_port != nullptr) *bound_port = listener.port();
  return listener.accept();
}

TcpChannel TcpChannel::connect(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("tcp: bad address " + host);

  // Retry for up to ~6 s so both parties can start concurrently (and a
  // thundering herd of client sessions can outwait a full backlog).
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) die("socket");
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc != 0 && errno == EINTR && ([&] {
               // EINTR mid-connect: the handshake continues in the
               // background — wait for writability, then read the result
               // instead of issuing a second connect (EALREADY).
               pollfd p{fd, POLLOUT, 0};
               while (::poll(&p, 1, -1) < 0 && errno == EINTR) {
               }
               int err = 0;
               socklen_t elen = sizeof(err);
               (void)getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen);
               errno = err;
               return false;  // leave the do-while; rc stays nonzero
             }()));
    if (rc == 0 || errno == 0) {
      set_nodelay(fd);
      return TcpChannel(fd);
    }
    ::close(fd);
    if (attempt >= 400) die("connect");
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
}

TcpChannel::TcpChannel(TcpChannel&& o) noexcept
    : fd_(o.fd_),
      nonblocking_(o.nonblocking_),
      timeout_ms_(o.timeout_ms_),
      sent_(o.sent_),
      received_(o.received_) {
  o.fd_ = -1;
}

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpChannel::shutdown() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

void TcpChannel::set_recv_timeout_ms(uint64_t ms) {
  if (fd_ < 0) return;
  timeout_ms_ = ms;
  if (nonblocking_) return;  // enforced as the poll deadline instead
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0)
    die("setsockopt(SO_RCVTIMEO)");
}

void TcpChannel::set_nonblocking(bool on) {
  if (fd_ < 0 || on == nonblocking_) return;
  set_fd_nonblocking(fd_, on);
  nonblocking_ = on;
  if (!on && timeout_ms_ > 0) {
    const uint64_t ms = timeout_ms_;
    timeout_ms_ = 0;
    set_recv_timeout_ms(ms);  // re-arm SO_RCVTIMEO for blocking mode
  }
}

// Resume point for nonblocking I/O: park in poll() until the fd is
// ready for `events`. The recv timeout bounds the wait (a mid-frame
// stall counts as idleness just like SO_RCVTIMEO would, and a peer that
// stops reading stalls a POLLOUT wait the same way); 0 waits forever.
// POLLERR/POLLHUP fall through to the syscall, which reports the
// precise error.
void TcpChannel::wait_ready(short events) {
  tcp_poll_resumes().add();
  const int timeout =
      timeout_ms_ > 0 ? static_cast<int>(timeout_ms_) : -1;
  pollfd p{fd_, events, 0};
  for (;;) {
    const int rc = ::poll(&p, 1, timeout);
    if (rc > 0) return;
    if (rc == 0)
      throw std::runtime_error(events == POLLOUT
                                   ? "tcp: send timed out"
                                   : "tcp: recv timed out (idle timeout)");
    if (errno == EINTR) continue;
    die("poll");
  }
}

void TcpChannel::sendmsg_all(iovec* iov, size_t n) {
  size_t at = 0;
  while (at < n) {
    msghdr m{};
    m.msg_iov = iov + at;
    m.msg_iovlen = std::min(n - at, size_t{IOV_MAX});
    const ssize_t w = ::sendmsg(fd_, &m, MSG_NOSIGNAL);
    netstat::syscalls_send().add();
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!nonblocking_) throw std::runtime_error("tcp: send timed out");
        wait_ready(POLLOUT);  // short write: resume where we left off
        continue;
      }
      if (peer_gone(errno)) throw_peer_closed();
      die("sendmsg");
    }
    size_t adv = static_cast<size_t>(w);
    while (adv > 0) {
      if (adv >= iov[at].iov_len) {
        adv -= iov[at].iov_len;
        ++at;
      } else {
        iov[at].iov_base = static_cast<uint8_t*>(iov[at].iov_base) + adv;
        iov[at].iov_len -= adv;
        adv = 0;
      }
    }
  }
}

void TcpChannel::send_bytes(const void* data, size_t n) {
  if (n == 0) return;
  iovec iov{const_cast<void*>(data), n};
  sendmsg_all(&iov, 1);
  sent_ += n;
  tcp_bytes_out().add(n);
}

void TcpChannel::recv_bytes(void* data, size_t n) {
  auto* p = static_cast<uint8_t*>(data);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::recv(fd_, p + done, n - done, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!nonblocking_)
          throw std::runtime_error("tcp: recv timed out (idle timeout)");
        wait_ready(POLLIN);  // short read: resume where we left off
        continue;
      }
      if (peer_gone(errno)) throw_peer_closed();
      die("recv");
    }
    if (r == 0) throw_peer_closed();
    done += static_cast<size_t>(r);
  }
  received_ += n;
  tcp_bytes_in().add(n);
}

void TcpChannel::send_iov(IoSlice* slices, size_t n) {
  std::vector<iovec> iov;
  iov.reserve(n);
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (slices[i].len == 0) continue;
    iov.push_back(iovec{const_cast<void*>(slices[i].data), slices[i].len});
    total += slices[i].len;
  }
  if (!iov.empty()) {
    netstat::sends_vectored().add();
    sendmsg_all(iov.data(), iov.size());
    sent_ += total;
    tcp_bytes_out().add(total);
  }
  // Slices fully on the wire (kernel-buffered) — borrowed slabs can
  // recycle now.
  for (size_t i = 0; i < n; ++i) slices[i].ref.reset();
}

size_t TcpChannel::recv_some(void* data, size_t min_n, size_t max_n) {
  auto* p = static_cast<uint8_t*>(data);
  size_t done = 0;
  // Each recv() asks for everything still fitting in max_n; the kernel
  // returns what has arrived, so we never block once min_n is satisfied.
  while (done < min_n) {
    const ssize_t r = ::recv(fd_, p + done, max_n - done, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!nonblocking_)
          throw std::runtime_error("tcp: recv timed out (idle timeout)");
        wait_ready(POLLIN);
        continue;
      }
      if (peer_gone(errno)) throw_peer_closed();
      die("recv");
    }
    if (r == 0) throw_peer_closed();
    done += static_cast<size_t>(r);
  }
  received_ += done;
  tcp_bytes_in().add(done);
  return done;
}

}  // namespace deepsecure
