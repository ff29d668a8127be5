// Reference-counted, recycling slab pool — the allocation substrate of
// the zero-copy table data plane. A garbled batch window is staged
// directly inside a pool slab (gc/batch_walk.h GarbleWindowLine), so
// the window's table rows are born in wire-shippable memory: the
// garbler hands the channel a borrowed slice plus a BufferRef instead
// of copying the rows into a frame buffer, and the slab flows back to
// the pool when the LAST reference drops — once the transport's send_iov
// has shipped the bytes and returned.
//
// Ownership model:
//   * BufferPool::acquire() returns a BufferRef with refcount 1 on a
//     64-byte-aligned slab of the pool's fixed slab size (freelist pop,
//     or a fresh aligned_alloc when the freelist is dry).
//   * BufferRef copies bump a per-slab atomic refcount; the last
//     release recycles the slab onto the pool freelist.
//   * The pool object may die with references still in flight (server
//     teardown racing an in-flight send): refs keep the shared pool
//     core alive, late releases recycle into the (now orphaned)
//     freelist, and the core's destructor frees every slab once the
//     last reference is gone — no use-after-free, no leak. Asserted in
//     tests/test_buffer_pool.cpp under TSan.
//   * BufferRef::adopt() wraps a caller-owned byte vector in the same
//     refcounted envelope (no pool, freed on last release) so
//     long-lived payloads like offline material tables ride the
//     borrowed-slice send path without belonging to any pool.
//
// Thread safety: acquire/release/copy are safe from any threads (the
// freelist takes a mutex — slab churn is once per ~170 KiB window, far
// off the hot path; refcounts are lock-free).
//
// Instruments (Registry::global()): pool.slab_acquire counts every
// acquire, pool.slab_recycle every slab returned to a freelist — their
// difference is the steady-state slab working set.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace deepsecure {

namespace detail {

// Every refcounted payload starts with this header. For pool slabs it
// occupies the first cache line of the allocation (data follows at
// +kSlabHeaderBytes, still 64-byte aligned); for adopted vectors it
// heads the heap-allocated holder.
struct alignas(64) SlabHeader {
  std::atomic<uint64_t> refs{0};
};
inline constexpr size_t kSlabHeaderBytes = 64;
static_assert(sizeof(SlabHeader) == kSlabHeaderBytes);

struct AdoptedHolder {
  SlabHeader hdr;  // must stay the first member (release casts back)
  std::vector<uint8_t> bytes;
};

// Shared pool state. BufferRefs hold a shared_ptr so a release after
// the BufferPool object died still has a live freelist to recycle
// into; the destructor (last pool handle OR last in-flight ref, whoever
// is later) frees every slab parked on the freelist.
struct PoolCore {
  std::mutex mu;
  std::vector<void*> freelist;  // slab base pointers (header included)
  size_t slab_bytes = 0;        // data bytes per slab
  ~PoolCore() {
    for (void* p : freelist) std::free(p);
  }
};

inline obs::Counter& pool_slab_acquire() {
  static obs::Counter& c =
      obs::Registry::global().counter("pool.slab_acquire");
  return c;
}
inline obs::Counter& pool_slab_recycle() {
  static obs::Counter& c =
      obs::Registry::global().counter("pool.slab_recycle");
  return c;
}

}  // namespace detail

/// Shared handle to one refcounted byte buffer (pool slab or adopted
/// vector). Copy = refcount bump; destruction of the last handle
/// recycles (pool slab) or frees (adopted). An empty ref is falsy and
/// has data() == nullptr.
class BufferRef {
 public:
  BufferRef() = default;
  BufferRef(const BufferRef& o)
      : hdr_(o.hdr_), data_(o.data_), size_(o.size_), core_(o.core_) {
    if (hdr_ != nullptr) hdr_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  BufferRef(BufferRef&& o) noexcept
      : hdr_(o.hdr_), data_(o.data_), size_(o.size_),
        core_(std::move(o.core_)) {
    o.hdr_ = nullptr;
    o.data_ = nullptr;
    o.size_ = 0;
  }
  BufferRef& operator=(const BufferRef& o) {
    if (this != &o) {
      BufferRef tmp(o);
      swap(tmp);
    }
    return *this;
  }
  BufferRef& operator=(BufferRef&& o) noexcept {
    if (this != &o) {
      release();
      hdr_ = std::exchange(o.hdr_, nullptr);
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, size_t{0});
      core_ = std::move(o.core_);
    }
    return *this;
  }
  ~BufferRef() { release(); }

  /// Take ownership of a byte vector: the bytes move into a refcounted
  /// holder freed on last release. The no-pool way to ship a long-lived
  /// payload (offline material tables) as a borrowed slice.
  static BufferRef adopt(std::vector<uint8_t>&& bytes) {
    auto* holder = new detail::AdoptedHolder{{}, std::move(bytes)};
    holder->hdr.refs.store(1, std::memory_order_relaxed);
    BufferRef r;
    r.hdr_ = &holder->hdr;
    r.data_ = holder->bytes.data();
    r.size_ = holder->bytes.size();
    return r;
  }

  explicit operator bool() const { return hdr_ != nullptr; }
  uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  /// Current reference count (tests/diagnostics; racy under sharing).
  uint64_t use_count() const {
    return hdr_ == nullptr ? 0 : hdr_->refs.load(std::memory_order_relaxed);
  }

  void reset() { release(); }

  void swap(BufferRef& o) noexcept {
    std::swap(hdr_, o.hdr_);
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(core_, o.core_);
  }

 private:
  friend class BufferPool;

  void release() {
    if (hdr_ == nullptr) return;
    if (hdr_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (core_ != nullptr) {
        // Pool slab: back onto the freelist (alive even if the pool
        // object is gone — core_ keeps it so).
        detail::pool_slab_recycle().add();
        std::lock_guard<std::mutex> lock(core_->mu);
        core_->freelist.push_back(static_cast<void*>(hdr_));
      } else {
        delete reinterpret_cast<detail::AdoptedHolder*>(hdr_);
      }
    }
    hdr_ = nullptr;
    data_ = nullptr;
    size_ = 0;
    core_.reset();
  }

  detail::SlabHeader* hdr_ = nullptr;
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::shared_ptr<detail::PoolCore> core_;  // null for adopted refs
};

/// Fixed-slab-size recycling pool (see file header for the ownership
/// and teardown contract).
class BufferPool {
 public:
  /// All slabs carry `slab_bytes` of data (rounded up to a multiple of
  /// 64 so the payload region is cache-line granular).
  explicit BufferPool(size_t slab_bytes)
      : core_(std::make_shared<detail::PoolCore>()) {
    core_->slab_bytes = (slab_bytes + 63) & ~size_t{63};
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  size_t slab_bytes() const { return core_->slab_bytes; }

  /// One slab with refcount 1: freelist pop, or a fresh 64-byte-aligned
  /// allocation when the freelist is dry.
  BufferRef acquire() {
    detail::pool_slab_acquire().add();
    void* base = nullptr;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      if (!core_->freelist.empty()) {
        base = core_->freelist.back();
        core_->freelist.pop_back();
      }
    }
    if (base == nullptr) {
      base = std::aligned_alloc(
          64, detail::kSlabHeaderBytes + core_->slab_bytes);
      if (base == nullptr) throw std::bad_alloc();
      new (base) detail::SlabHeader();
    }
    auto* hdr = static_cast<detail::SlabHeader*>(base);
    hdr->refs.store(1, std::memory_order_relaxed);
    BufferRef r;
    r.hdr_ = hdr;
    r.data_ = static_cast<uint8_t*>(base) + detail::kSlabHeaderBytes;
    r.size_ = core_->slab_bytes;
    r.core_ = core_;
    return r;
  }

  /// Slabs parked on the freelist right now (tests).
  size_t free_slabs() const {
    std::lock_guard<std::mutex> lock(core_->mu);
    return core_->freelist.size();
  }

 private:
  std::shared_ptr<detail::PoolCore> core_;
};

}  // namespace deepsecure
