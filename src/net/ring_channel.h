// Asynchronous-sender decorator for any Channel: the garbler-shard →
// frame-writer handoff from the event-core work. send_bytes() copies the
// payload into a chunk, pushes it onto a lock-free SPSC ring
// (support/spsc_ring.h), and returns immediately; a dedicated writer
// thread pops chunks and ships them through the inner channel. The
// producing thread (the garbler emitting table frames, the prefetch
// lane pushing artifacts) therefore overlaps its next frame's work with
// the kernel send of the previous one, instead of serializing
// garble → send → garble.
//
// Zero-copy path: send_iov() pushes ref-carrying slices through the
// ring as BORROWED chunks — no memcpy at enqueue; the BufferRef rides
// the ring and is released only after the writer's inner send returns,
// i.e. the slab recycles when the kernel send completed, not when the
// frame was queued. Ref-less slices are copied (the IoSlice contract:
// they are only valid during the call), coalesced into one owned chunk.
//
// Copy-mode chunk recycling: spent owned chunks flow back to the sender
// on a second SPSC ring (the freelist), so steady-state copy-mode
// traffic reuses ~depth vectors instead of allocating one per send —
// reuse counted in net.ring.chunk_reuse.
//
// Writer batching: the writer drains every queued chunk (up to a batch
// cap) into ONE inner send_iov call, so a burst of table frames becomes
// one sendmsg instead of a syscall per frame.
//
// Ordering: the wire sees chunks in push order (one ring, one writer).
// Receives drain first — recv_bytes/recv_some wait until every queued
// byte has reached the inner channel before reading, so a
// request/response exchange (the OT rounds) can never read a reply to a
// request still sitting in the ring.
//
// Threading contract: exactly ONE user thread calls send/recv on this
// channel (it is the ring's single producer); the internal writer is
// the single consumer. Parking is futex-backed (std::atomic::wait on
// the ring cursors / a doorbell counter), so the handoff path itself
// takes no mutex.
//
// Failure: a writer-side send error is parked and rethrown on the next
// send/recv/drain from the user thread; the writer keeps draining (and
// discarding) chunks so a producer parked on a full ring can never
// deadlock on a dead transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <thread>
#include <vector>

#include "net/channel.h"
#include "obs/metrics.h"
#include "support/spsc_ring.h"

namespace deepsecure {

class RingChannel final : public Channel {
 public:
  /// `depth` = chunks in flight before a sender parks. The underlying
  /// transport must outlive this object.
  explicit RingChannel(Channel& inner, size_t depth = 64)
      : inner_(inner), ring_(depth), free_ring_(depth) {
    writer_ = std::thread([this] { writer_loop(); });
  }

  ~RingChannel() override {
    stop_.store(true, std::memory_order_release);
    ring_doorbell();
    if (writer_.joinable()) writer_.join();
  }

  void send_bytes(const void* data, size_t n) override {
    rethrow_if_failed();
    if (n == 0) return;
    Chunk chunk = make_owned_chunk(data, n);
    push_chunk(std::move(chunk), n);
    sent_ += n;
  }

  /// Ref-carrying slices ride the ring borrowed (zero-copy; the ref is
  /// released after the writer-side send). Ref-less slices are copied,
  /// consecutive ones coalesced into a single owned chunk.
  void send_iov(IoSlice* slices, size_t n) override {
    rethrow_if_failed();
    size_t i = 0;
    while (i < n) {
      if (slices[i].len == 0) {
        slices[i].ref.reset();
        ++i;
        continue;
      }
      if (slices[i].ref) {
        Chunk chunk;
        chunk.ref = std::move(slices[i].ref);
        chunk.data = static_cast<const uint8_t*>(slices[i].data);
        chunk.len = slices[i].len;
        const size_t len = chunk.len;
        push_chunk(std::move(chunk), len);
        sent_ += len;
        ++i;
        continue;
      }
      // Coalesce the run of ref-less slices starting here.
      size_t j = i;
      size_t run = 0;
      while (j < n && !slices[j].ref) run += slices[j++].len;
      Chunk chunk = fresh_owned_chunk(run);
      for (size_t k = i; k < j; ++k) {
        chunk.owned.insert(
            chunk.owned.end(), static_cast<const uint8_t*>(slices[k].data),
            static_cast<const uint8_t*>(slices[k].data) + slices[k].len);
      }
      chunk.data = chunk.owned.data();
      chunk.len = chunk.owned.size();
      netstat::bytes_copied().add(run);
      push_chunk(std::move(chunk), run);
      sent_ += run;
      i = j;
    }
  }

  void recv_bytes(void* data, size_t n) override {
    drain();
    inner_.recv_bytes(data, n);
    received_ += n;
  }

  size_t recv_some(void* data, size_t min_n, size_t max_n) override {
    drain();
    const size_t got = inner_.recv_some(data, min_n, max_n);
    received_ += got;
    return got;
  }

  /// Block until every accepted byte has been written to the inner
  /// channel (or the writer failed — rethrown here).
  void drain() {
    for (;;) {
      rethrow_if_failed();
      const uint64_t p = pending_.load(std::memory_order_acquire);
      if (p == 0) return;
      pending_.wait(p, std::memory_order_acquire);
    }
  }

  /// Bytes accepted by send_bytes but not yet on the inner channel.
  uint64_t pending_bytes() const {
    return pending_.load(std::memory_order_acquire);
  }

  uint64_t bytes_sent() const override { return sent_; }
  uint64_t bytes_received() const override { return received_; }
  void reset_counters() override {
    sent_ = 0;
    received_ = 0;
  }

 private:
  // One queued send. Owned chunks carry their payload in `owned`
  // (copy mode — the vector is recycled through free_ring_); borrowed
  // chunks point into a slab kept alive by `ref` until after the inner
  // send. `data`/`len` always describe the wire bytes.
  struct Chunk {
    std::vector<uint8_t> owned;
    BufferRef ref;
    const uint8_t* data = nullptr;
    size_t len = 0;
  };

  /// Max chunks the writer folds into one inner send_iov.
  static constexpr size_t kWriterBatch = 32;

  Chunk fresh_owned_chunk(size_t reserve) {
    Chunk chunk;
    // Reuse a spent vector from the writer when one is waiting — its
    // capacity from a previous lap usually already fits.
    if (free_ring_.try_pop(chunk.owned)) c_chunk_reuse_.add();
    chunk.owned.clear();
    chunk.owned.reserve(reserve);
    return chunk;
  }

  Chunk make_owned_chunk(const void* data, size_t n) {
    Chunk chunk = fresh_owned_chunk(n);
    chunk.owned.resize(n);
    std::memcpy(chunk.owned.data(), data, n);
    chunk.data = chunk.owned.data();
    chunk.len = n;
    netstat::bytes_copied().add(n);
    return chunk;
  }

  void push_chunk(Chunk&& chunk, size_t n) {
    // Counted before the push so drain() can never observe the queue as
    // settled while this chunk is still on its way in.
    pending_.fetch_add(n, std::memory_order_release);
    bool stalled = false;
    while (!ring_.try_push(std::move(chunk))) {
      if (failed_.load(std::memory_order_acquire)) {
        pending_.fetch_sub(n, std::memory_order_release);
        rethrow_if_failed();
      }
      if (!stalled) {
        // A full ring means the producer outran the writer — the
        // back-pressure signal the depth parameter is tuned against.
        stalled = true;
        c_full_stalls_.add();
      }
      // Full: park until the writer frees a slot (tail advances).
      const uint64_t t = ring_.tail().load(std::memory_order_acquire);
      if (ring_.head().load(std::memory_order_relaxed) - t >=
          ring_.capacity())
        ring_.tail().wait(t, std::memory_order_acquire);
    }
    ring_doorbell();
  }

  void ring_doorbell() {
    doorbell_.fetch_add(1, std::memory_order_release);
    doorbell_.notify_one();
  }

  void rethrow_if_failed() {
    if (failed_.load(std::memory_order_acquire))
      std::rethrow_exception(error_);  // published before failed_
  }

  void writer_loop() {
    Chunk batch[kWriterBatch];
    IoSlice slices[kWriterBatch];
    for (;;) {
      // Drain up to a batch of queued chunks; each pop frees a slot, so
      // notify potential full-ring parkers as we go.
      size_t count = 0;
      while (count < kWriterBatch && ring_.try_pop(batch[count])) {
        ring_.tail().notify_one();
        ++count;
      }
      if (count > 0) {
        size_t total = 0;
        for (size_t i = 0; i < count; ++i) total += batch[i].len;
        if (!failed_.load(std::memory_order_relaxed)) {
          try {
            // One vectored send for the whole batch: one sendmsg
            // instead of one syscall per frame. Refs stay on the chunks
            // until this returns (the send_iov callee may move them,
            // which is the same release point).
            for (size_t i = 0; i < count; ++i) {
              slices[i].data = batch[i].data;
              slices[i].len = batch[i].len;
              slices[i].ref = std::move(batch[i].ref);
            }
            inner_.send_iov(slices, count);
          } catch (...) {
            error_ = std::current_exception();
            failed_.store(true, std::memory_order_release);
          }
        }
        // Settled whether written or discarded-after-failure: drain()
        // must terminate either way (it rethrows the parked error).
        for (size_t i = 0; i < count; ++i) {
          slices[i].ref.reset();
          if (batch[i].owned.capacity() > 0) {
            batch[i].owned.clear();
            // Freelist full = the sender is not reusing fast enough;
            // just drop the vector.
            (void)free_ring_.try_push(std::move(batch[i].owned));
          }
          batch[i] = Chunk{};
        }
        pending_.fetch_sub(total, std::memory_order_release);
        pending_.notify_all();
        continue;
      }
      // Empty: wait for a push or stop. The doorbell counter bumps on
      // both, so the wait below cannot miss either event.
      const uint64_t seen = doorbell_.load(std::memory_order_acquire);
      if (ring_.empty()) {
        if (stop_.load(std::memory_order_acquire)) return;
        doorbell_.wait(seen, std::memory_order_acquire);
      }
    }
  }

  Channel& inner_;
  // Process-wide instruments (Registry::global()), aggregated across
  // every RingChannel: full-ring sender stalls, and owned-chunk vector
  // reuse through the freelist ring.
  obs::Counter& c_full_stalls_ =
      obs::Registry::global().counter("net.ring.full_stalls");
  obs::Counter& c_chunk_reuse_ =
      obs::Registry::global().counter("net.ring.chunk_reuse");
  SpscRing<Chunk> ring_;
  // Spent owned vectors, writer → sender (writer = producer here).
  SpscRing<std::vector<uint8_t>> free_ring_;
  std::atomic<uint64_t> pending_{0};
  std::atomic<uint64_t> doorbell_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
  std::thread writer_;
};

}  // namespace deepsecure
