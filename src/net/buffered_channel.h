// Buffering decorator for any Channel. The GC protocol sends many tiny
// messages — per-column OT bit vectors, u64 length headers, single
// decode bits — and over TcpChannel each of those is a syscall. This
// wrapper coalesces small sends into one buffer (flushed when full,
// before any receive, and on flush()/destruction) and reads ahead on the
// receive side via Channel::recv_some, which never blocks for bytes the
// peer has not already sent — so read-ahead cannot deadlock a
// request/response protocol.
//
// Flushing before every receive keeps the conversation correct for
// arbitrary send/recv interleavings: by the time this endpoint waits for
// the peer, everything it promised to send is on the wire.
#pragma once

#include <cstring>
#include <vector>

#include "net/channel.h"
#include "obs/metrics.h"

namespace deepsecure {

class BufferedChannel final : public Channel {
 public:
  explicit BufferedChannel(Channel& inner, size_t buf_bytes = 1 << 16)
      : inner_(inner), cap_(buf_bytes) {
    wbuf_.reserve(cap_);
    rbuf_.resize(cap_);
  }
  ~BufferedChannel() override {
    try {
      flush();
    } catch (...) {
      // Destruction during stack unwind (peer already gone): drop bytes.
    }
  }

  void send_bytes(const void* data, size_t n) override {
    const auto* p = static_cast<const uint8_t*>(data);
    sent_ += n;
    if (wbuf_.size() + n > cap_) flush_writes();
    if (n > cap_) {  // large payload: ship directly, no extra copy
      inner_.send_bytes(p, n);
      return;
    }
    wbuf_.insert(wbuf_.end(), p, p + n);
  }

  void recv_bytes(void* data, size_t n) override {
    flush_writes();  // everything we owe the peer goes out first
    auto* p = static_cast<uint8_t*>(data);
    received_ += n;
    size_t got = take_buffered(p, n);
    if (got == n) return;
    if (n - got >= cap_) {  // large read: straight into the caller
      inner_.recv_bytes(p + got, n - got);
      return;
    }
    // Read at least what the caller needs, opportunistically more.
    rlen_ = inner_.recv_some(rbuf_.data(), n - got, cap_);
    rpos_ = 0;
    take_buffered(p + got, n - got);
  }

  size_t recv_some(void* data, size_t min_n, size_t max_n) override {
    flush_writes();
    auto* p = static_cast<uint8_t*>(data);
    size_t got = take_buffered(p, max_n);
    if (got < min_n)
      got += inner_.recv_some(p + got, min_n - got, max_n - got);
    received_ += got;
    return got;
  }

  /// Push buffered sends to the underlying channel.
  void flush() { flush_writes(); }

  /// Bytes already read ahead from the transport but not yet consumed.
  /// The reactor must drain frames while this is nonzero before parking
  /// the fd in epoll again — readiness APIs cannot see user-space bytes.
  size_t recv_buffered() const { return rlen_ - rpos_; }

  /// Counters reflect the logical payload through this wrapper (the
  /// inner channel counts the same bytes at the transport).
  uint64_t bytes_sent() const override { return sent_; }
  uint64_t bytes_received() const override { return received_; }
  void reset_counters() override {
    sent_ = 0;
    received_ = 0;
  }

 private:
  void flush_writes() {
    if (wbuf_.empty()) return;
    // Coalescing effectiveness, process-wide: bytes per flush is what
    // the buffer size is tuned against (resolved once, all channels).
    static obs::Counter& flushes =
        obs::Registry::global().counter("net.buffered.flushes");
    static obs::Counter& flush_bytes =
        obs::Registry::global().counter("net.buffered.flush_bytes");
    flushes.add();
    flush_bytes.add(wbuf_.size());
    inner_.send_bytes(wbuf_.data(), wbuf_.size());
    wbuf_.clear();
  }

  size_t take_buffered(uint8_t* p, size_t n) {
    const size_t take = std::min(n, rlen_ - rpos_);
    if (take > 0) {
      std::memcpy(p, rbuf_.data() + rpos_, take);
      rpos_ += take;
    }
    return take;
  }

  Channel& inner_;
  size_t cap_;
  std::vector<uint8_t> wbuf_;
  std::vector<uint8_t> rbuf_;
  size_t rpos_ = 0;
  size_t rlen_ = 0;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
};

}  // namespace deepsecure
