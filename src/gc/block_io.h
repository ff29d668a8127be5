// Buffered streaming of 128-bit blocks over a Channel. Garbled tables
// dominate traffic (two blocks per AND gate); per-block channel calls
// would serialize on the channel mutex, so both sides batch through a
// fixed-size local buffer with an identical, deterministic flush policy.
//
// Two wire formats:
//   * monolithic (default): the raw block stream, chunked only by the
//     local buffer capacity. The reader must be told the total length
//     up front (expect()).
//   * framed: a sequence of length-prefixed frames
//       [u32 payload_bytes][payload]
//     aligned to garbling batch-window boundaries (mark_window()), so
//     the evaluator can consume tables window-by-window while the
//     garbler is still producing later windows — the streaming overlap
//     the runtime/ subsystem builds on. Windows smaller than
//     kGcMinFrameBlocks are coalesced into one frame to bound header
//     overhead on flush-heavy (ripple-carry) netlists.
//
// Schedule-aware frame sizing: mark_window() distinguishes dependency
// flushes (an AND-level boundary under the width scheduler — a real
// barrier in the gate order) from capacity flushes (the hash window hit
// kGcMaxBatchWindow mid-level). Only level boundaries cut frames, so a
// wide scheduled level whose ANDs drain as several capacity windows
// ships as ONE frame instead of one frame per window; the local buffer
// capacity still bounds the frame size (and thus writer memory). Frames
// are self-describing, so resizing them never desyncs the reader, and
// the concatenated payload stays byte-identical either way.
// Frame headers carry payload sizes only; the framed payload bytes,
// concatenated, are byte-identical to the monolithic stream (asserted in
// tests/test_runtime.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "crypto/block.h"
#include "net/channel.h"

namespace deepsecure {

/// Minimum blocks per table frame (16 KiB): windows flushed closer
/// together than this are coalesced into one frame.
inline constexpr size_t kGcMinFrameBlocks = 1024;

class BlockWriter {
 public:
  explicit BlockWriter(Channel& ch, size_t capacity = 1 << 15,
                       bool framed = false)
      : ch_(ch),
        header_(framed ? sizeof(uint32_t) : 0),
        // Default-initialized: pages are touched only as blocks land, so
        // a writer that ships a few frames does not fault in the whole
        // buffer.
        buf_(new uint8_t[header_ + capacity * sizeof(Block)]),
        capacity_(capacity),
        framed_(framed) {}
  // Destruction during stack unwind (garbling aborted by a transport
  // failure) must not throw a second exception out of flush() — that
  // would turn a recoverable connection reset into std::terminate.
  ~BlockWriter() {
    try {
      flush();
    } catch (...) {
      // Peer already gone: the bytes have nowhere to go. Drop them.
    }
  }

  void put(Block b) { put(&b, 1); }

  /// Append `n` blocks, one bulk copy per capacity chunk. The buffer
  /// flushes at exactly the capacity boundaries `n` put(Block) calls
  /// would hit, so frame cuts do not depend on how rows are handed over.
  void put(const Block* data, size_t n) {
    while (n > 0) {
      const size_t take = std::min(n, capacity_ - pending_);
      std::memcpy(buf_.get() + header_ + pending_ * sizeof(Block), data,
                  take * sizeof(Block));
      pending_ += take;
      data += take;
      n -= take;
      if (pending_ == capacity_) flush();
    }
  }

  /// Batch-window boundary: in framed mode, ship the buffered windows as
  /// one frame once enough has accumulated. `level_boundary` says whether
  /// this drain is a dependency flush (an AND-level boundary in the
  /// scheduled order — a frame-worthy barrier) or a mere capacity drain
  /// mid-level; capacity drains keep buffering so a wide level ships as
  /// one frame (see file header). No-op in monolithic mode (the capacity
  /// policy alone governs chunking).
  void mark_window(bool level_boundary = true) {
    if (framed_ && level_boundary && pending_ >= kGcMinFrameBlocks) flush();
  }

  /// Ship the pending blocks: one send_bytes carrying the u32 frame
  /// header (framed mode) and the rows behind it.
  void flush() {
    if (pending_ == 0) return;
    const size_t bytes = pending_ * sizeof(Block);
    if (framed_) {
      const uint32_t len = static_cast<uint32_t>(bytes);
      std::memcpy(buf_.get(), &len, sizeof(len));
    }
    // The staging copy: every table byte passes through this buffer
    // once. Counted here, not per put(), to keep the hot loop tight.
    netstat::bytes_copied().add(bytes);
    ch_.send_bytes(buf_.get(), header_ + bytes);
    pending_ = 0;
  }

 private:
  Channel& ch_;
  size_t header_;                   // frame header bytes: 4 framed, else 0
  std::unique_ptr<uint8_t[]> buf_;  // [header][rows]
  size_t pending_ = 0;
  size_t capacity_;
  bool framed_;
};

class BlockReader {
 public:
  /// Monolithic mode: `total` blocks will be consumed overall (declared
  /// via expect()); reads arrive in the writer's flush granularity.
  /// Framed mode: frames self-describe, expect() is not needed.
  explicit BlockReader(Channel& ch, size_t capacity = 1 << 15,
                       bool framed = false)
      : ch_(ch), capacity_(capacity), framed_(framed) {}

  Block get() {
    if (pos_ == buf_.size()) refill();
    return buf_[pos_++];
  }

  /// Number of blocks already buffered but not yet consumed.
  size_t buffered() const { return buf_.size() - pos_; }

  /// Prepare to read exactly `n` more blocks (bounds refill sizes so we
  /// never read past the logical stream). Monolithic mode only.
  void expect(size_t n) { remaining_ += n; }

 private:
  void refill() {
    if (framed_) {
      uint32_t len = 0;
      ch_.recv_bytes(&len, sizeof(len));
      if (len == 0 || len % sizeof(Block) != 0 || len > (64u << 20))
        throw std::runtime_error("gc: malformed table frame header");
      buf_.resize(len / sizeof(Block));
      pos_ = 0;
      ch_.recv_bytes(buf_.data(), len);
      return;
    }
    const size_t n = std::min(capacity_, remaining_);
    buf_.resize(n);
    pos_ = 0;
    ch_.recv_bytes(buf_.data(), n * sizeof(Block));
    remaining_ -= n;
  }

  Channel& ch_;
  std::vector<Block> buf_;
  size_t pos_ = 0;
  size_t capacity_;
  size_t remaining_ = 0;
  bool framed_;
};

}  // namespace deepsecure
