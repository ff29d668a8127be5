// Two-party communication channel abstraction. The GC protocol, OT, and
// the outsourcing mode all talk through this interface, and the byte
// counters are the source of the paper's "Comm. (MB)" columns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "crypto/block.h"
#include "obs/metrics.h"

namespace deepsecure {

namespace netstat {
// Process-wide data-plane instruments (Registry::global()), shared by
// every channel implementation. Resolved once per process.
//   net.bytes_copied   — table bytes staged by BlockWriter (gc/block_io.h)
//                        before they ship: one copy per table byte.
//   net.syscalls_send  — kernel send syscalls (one per send call).
inline obs::Counter& bytes_copied() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.bytes_copied");
  return c;
}
inline obs::Counter& syscalls_send() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.syscalls_send");
  return c;
}
}  // namespace netstat

class Channel {
 public:
  virtual ~Channel() = default;

  virtual void send_bytes(const void* data, size_t n) = 0;
  virtual void recv_bytes(void* data, size_t n) = 0;

  /// Receive at least `min_n` and at most `max_n` bytes, returning how
  /// many arrived. Transports that can see "what is already available"
  /// (TCP, the in-memory queue) override this so buffering wrappers can
  /// read ahead without ever blocking for bytes the peer has not sent.
  /// The default is the exact-read behavior.
  virtual size_t recv_some(void* data, size_t min_n, size_t max_n) {
    (void)max_n;
    recv_bytes(data, min_n);
    return min_n;
  }

  // --- typed helpers -------------------------------------------------
  void send_block(Block b) {
    uint8_t buf[16];
    b.to_bytes(buf);
    send_bytes(buf, sizeof(buf));
  }
  Block recv_block() {
    uint8_t buf[16];
    recv_bytes(buf, sizeof(buf));
    return Block::from_bytes(buf);
  }
  // Bulk label transfer: one send/recv per staging chunk instead of one
  // 16-byte channel call per block (which over TcpChannel is a syscall
  // per block). Small runs serialize through a stack buffer; large runs
  // pay one heap allocation for a single bulk transfer.
  void send_blocks(const Block* b, size_t n) {
    constexpr size_t kStackBlocks = 256;  // 4 KiB on the stack
    if (n <= kStackBlocks) {
      uint8_t stage[kStackBlocks * 16];
      for (size_t i = 0; i < n; ++i) b[i].to_bytes(stage + 16 * i);
      if (n > 0) send_bytes(stage, n * 16);
      return;
    }
    std::vector<uint8_t> stage(n * 16);
    for (size_t i = 0; i < n; ++i) b[i].to_bytes(stage.data() + 16 * i);
    send_bytes(stage.data(), stage.size());
  }
  void recv_blocks(Block* b, size_t n) {
    constexpr size_t kStackBlocks = 256;
    if (n <= kStackBlocks) {
      uint8_t stage[kStackBlocks * 16];
      if (n > 0) recv_bytes(stage, n * 16);
      for (size_t i = 0; i < n; ++i) b[i] = Block::from_bytes(stage + 16 * i);
      return;
    }
    std::vector<uint8_t> stage(n * 16);
    recv_bytes(stage.data(), stage.size());
    for (size_t i = 0; i < n; ++i) b[i] = Block::from_bytes(stage.data() + 16 * i);
  }
  void send_u64(uint64_t v) { send_bytes(&v, sizeof(v)); }
  uint64_t recv_u64() {
    uint64_t v = 0;
    recv_bytes(&v, sizeof(v));
    return v;
  }
  void send_bit(uint8_t b) { send_bytes(&b, 1); }
  uint8_t recv_bit() {
    uint8_t b = 0;
    recv_bytes(&b, 1);
    return b;
  }
  void send_bits(const std::vector<uint8_t>& bits) {
    send_u64(bits.size());
    // Packed transfer, 8 bits per byte.
    std::vector<uint8_t> packed((bits.size() + 7) / 8, 0);
    for (size_t i = 0; i < bits.size(); ++i)
      packed[i / 8] |= static_cast<uint8_t>((bits[i] & 1u) << (i % 8));
    if (!packed.empty()) send_bytes(packed.data(), packed.size());
  }
  std::vector<uint8_t> recv_bits() {
    return recv_bits_bounded(~uint64_t{0});
  }
  // Bounded variant for lengths the peer controls: the count is
  // validated before anything is allocated from it, so a corrupted or
  // hostile length header yields a protocol error instead of a
  // multi-gigabyte allocation.
  std::vector<uint8_t> recv_bits_bounded(uint64_t max_bits) {
    const uint64_t n = recv_u64();
    if (n > max_bits)
      throw std::runtime_error("channel: oversized bit vector");
    std::vector<uint8_t> packed((n + 7) / 8);
    if (!packed.empty()) recv_bytes(packed.data(), packed.size());
    std::vector<uint8_t> bits(n);
    for (size_t i = 0; i < n; ++i)
      bits[i] = (packed[i / 8] >> (i % 8)) & 1u;
    return bits;
  }

  /// Total bytes pushed through send_bytes on this endpoint.
  virtual uint64_t bytes_sent() const = 0;
  virtual uint64_t bytes_received() const = 0;
  virtual void reset_counters() = 0;
};

}  // namespace deepsecure
