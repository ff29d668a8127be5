// BufferPool / BufferRef lifecycle regressions: refcount semantics,
// slab recycling (including recycle once a borrowed send returns),
// adopted-vector ownership, and the teardown-with-inflight-refs
// contract — the pool object may die while references are still out,
// and the last release must neither crash nor leak. The concurrency
// case is a TSan target (.github CI runs this binary under
// -fsanitize=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/channel.h"
#include "support/buffer_pool.h"

namespace deepsecure {
namespace {

// Sink transport recording every byte (the pool tests only send).
class SinkChannel : public Channel {
 public:
  void send_bytes(const void* data, size_t n) override {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + n);
  }
  void recv_bytes(void*, size_t) override {
    throw std::logic_error("SinkChannel: recv not supported");
  }
  uint64_t bytes_sent() const override { return bytes.size(); }
  uint64_t bytes_received() const override { return 0; }
  void reset_counters() override { bytes.clear(); }

  std::vector<uint8_t> bytes;
};

TEST(BufferPool, AcquireReleaseRecyclesSlab) {
  BufferPool pool(100);  // rounds up to cache-line granularity
  EXPECT_EQ(pool.slab_bytes(), 128u);
  EXPECT_EQ(pool.free_slabs(), 0u);
  uint8_t* first = nullptr;
  {
    BufferRef ref = pool.acquire();
    ASSERT_TRUE(ref);
    EXPECT_EQ(ref.size(), 128u);
    EXPECT_EQ(ref.use_count(), 1u);
    first = ref.data();
    std::memset(ref.data(), 0xAB, ref.size());
  }
  EXPECT_EQ(pool.free_slabs(), 1u);
  // The freelist really recycles: the next acquire hands back the same
  // slab instead of allocating.
  BufferRef again = pool.acquire();
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(pool.free_slabs(), 0u);
}

TEST(BufferPool, CopySharesAndLastReleaseRecycles) {
  BufferPool pool(64);
  BufferRef a = pool.acquire();
  BufferRef b = a;  // copy bumps
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(b.data(), a.data());
  BufferRef c = std::move(a);  // move transfers, no bump
  EXPECT_FALSE(a);
  EXPECT_EQ(c.use_count(), 2u);
  b.reset();
  EXPECT_EQ(pool.free_slabs(), 0u);  // c still pins the slab
  EXPECT_EQ(c.use_count(), 1u);
  c.reset();
  EXPECT_EQ(pool.free_slabs(), 1u);
}

TEST(BufferPool, AdoptedVectorKeepsBytesUntilLastRelease) {
  std::vector<uint8_t> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<uint8_t>(i);
  BufferRef a = BufferRef::adopt(std::move(v));
  ASSERT_TRUE(a);
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_EQ(a.data()[123], 123u);
  BufferRef b = a;
  a.reset();
  EXPECT_EQ(b.data()[999], static_cast<uint8_t>(999));
  b.reset();  // frees the holder (leak-checked under the sanitizers)
}

// Recycle-after-send: a slab borrowed into a send_iov stays pinned
// until the transport has shipped its bytes, and is back on the
// freelist once send_iov returns (the transport drops the ref it took).
TEST(BufferPool, SlabRecyclesAfterAsyncSendCompletes) {
  SinkChannel sink;
  BufferPool pool(256);
  BufferRef ref = pool.acquire();
  for (size_t i = 0; i < ref.size(); ++i)
    ref.data()[i] = static_cast<uint8_t>(i * 7);
  IoSlice slice;
  slice.data = ref.data();
  slice.len = ref.size();
  slice.ref = std::move(ref);
  sink.send_iov(&slice, 1);
  EXPECT_FALSE(slice.ref);
  EXPECT_EQ(pool.free_slabs(), 1u);
  ASSERT_EQ(sink.bytes.size(), 256u);
  for (size_t i = 0; i < sink.bytes.size(); ++i)
    ASSERT_EQ(sink.bytes[i], static_cast<uint8_t>(i * 7));
}

// Teardown-with-inflight-refs: destroying the pool while a reference is
// still alive must keep the slab memory valid; the late release
// recycles into the orphaned core, whose destructor frees everything.
// ASan/LSan verify the no-leak half, TSan the unsynchronized-teardown
// half.
TEST(BufferPool, PoolMayDieBeforeInflightRefs) {
  auto pool = std::make_unique<BufferPool>(512);
  BufferRef held = pool->acquire();
  BufferRef copy = held;
  std::memset(held.data(), 0x5C, held.size());
  pool.reset();  // pool object gone, refs still out
  EXPECT_EQ(held.data()[511], 0x5C);
  copy.reset();
  EXPECT_EQ(held.use_count(), 1u);
  held.reset();  // last release frees via the orphaned core
}

// Concurrency smoke (the TSan target): many threads churning acquire /
// copy / release against one pool must neither race nor lose slabs.
TEST(BufferPool, ConcurrentAcquireReleaseSmoke) {
  BufferPool pool(128);
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::atomic<uint64_t> touched{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        BufferRef ref = pool.acquire();
        ref.data()[0] = static_cast<uint8_t>(t);
        BufferRef copy = ref;
        touched.fetch_add(copy.data()[0] == static_cast<uint8_t>(t) ? 1 : 0);
        // Drop in shuffled order so both paths release last sometimes.
        if (i % 2 == 0) ref.reset();
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(touched.load(), uint64_t{kThreads * kIters});
  // Every slab came home: nothing is checked out anymore.
  BufferRef probe = pool.acquire();
  EXPECT_EQ(probe.use_count(), 1u);
}

}  // namespace
}  // namespace deepsecure
