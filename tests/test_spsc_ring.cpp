// Tests for the lock-free SPSC ring (support/spsc_ring.h): boundary
// behavior (full/empty, wraparound across many laps), the per-slot
// sequence protocol (overrun detection via sequence_of), threaded
// producer/consumer stress (run under TSan in CI — the handoff must be
// data-race-free). The ring carries the client's prefetch lane, its
// credits and the tracer's per-thread buffers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "support/spsc_ring.h"

namespace deepsecure {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(9).capacity(), 16u);
}

TEST(SpscRing, FullAndEmptyBoundaries) {
  SpscRing<int> ring(4);
  int out = 0;
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));  // empty pop fails
  EXPECT_EQ(ring.front(), nullptr);

  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.try_push(99));  // full push fails...
  EXPECT_EQ(ring.size(), 4u);       // ...and changes nothing

  ASSERT_NE(ring.front(), nullptr);
  EXPECT_EQ(*ring.front(), 0);  // peek does not consume
  EXPECT_EQ(ring.size(), 4u);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, WraparoundManyLaps) {
  SpscRing<uint64_t> ring(4);
  uint64_t out = 0;
  // Interleave pushes and pops so the cursors lap the slot array many
  // times; each slot's sequence stamp must keep the FIFO order intact.
  uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    const size_t burst = 1 + (round % 4);
    for (size_t i = 0; i < burst; ++i)
      ASSERT_TRUE(ring.try_push(uint64_t{next_in++}));
    for (size_t i = 0; i < burst; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      ASSERT_EQ(out, next_out++);
    }
  }
  EXPECT_TRUE(ring.empty());
  // Monotonic cursors: both sides have walked the full value count,
  // far past the 4-slot array (many laps).
  EXPECT_EQ(ring.head().load(), next_in);
  EXPECT_EQ(ring.tail().load(), next_out);
  EXPECT_GT(next_in, ring.capacity() * 100);
}

TEST(SpscRing, MoveOnlyPayloadAndSlotScrub) {
  SpscRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
  // The slot was scrubbed on pop (payload dropped immediately, not one
  // full lap later): push/pop again and the old value must be gone.
  ASSERT_TRUE(ring.try_push(std::unique_ptr<int>{}));
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, nullptr);
}

TEST(SpscRing, SequenceStampsDetectOverrun) {
  SpscRing<int> ring(4);
  // Empty ring: slot for cursor c holds seq == c (awaiting value #c).
  EXPECT_EQ(ring.sequence_of(0), 0u);
  ASSERT_TRUE(ring.try_push(1));
  // Full slot: seq == cursor + 1 — the consumer-at-0 "value ready" mark.
  EXPECT_EQ(ring.sequence_of(0), 1u);
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  // Freed slot: seq == cursor + capacity, ready for the producer's next
  // lap. A consumer still holding cursor 0 that observed this value
  // (> 0 + 1) would know it had been lapped — the overrun invariant.
  EXPECT_EQ(ring.sequence_of(0), 4u);
  EXPECT_GT(ring.sequence_of(0), 0u + 1u);
}

// Threaded handoff stress: one producer, one consumer, a ring far
// smaller than the item count (constant wraparound + full/empty
// boundary hits). TSan (DEEPSECURE_SANITIZE=thread) must see no race;
// the consumer checks exact FIFO order and the checksum catches lost or
// duplicated values.
TEST(SpscRing, ThreadedProducerConsumerStress) {
  constexpr uint64_t kItems = 50000;
  SpscRing<uint64_t> ring(8);
  std::atomic<bool> done{false};
  uint64_t sum = 0, expect_next = 0;
  bool fifo_ok = true;

  // Yield on the contended edges: on a single-core runner a pure spin
  // would burn the whole scheduling quantum waiting for the other side.
  std::thread consumer([&] {
    uint64_t v;
    for (;;) {
      if (ring.try_pop(v)) {
        fifo_ok = fifo_ok && (v == expect_next);
        ++expect_next;
        sum += v;
      } else if (done.load(std::memory_order_acquire) && ring.empty()) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (uint64_t i = 0; i < kItems; ++i)
    while (!ring.try_push(uint64_t{i})) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_TRUE(fifo_ok);
  EXPECT_EQ(expect_next, kItems);
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
  EXPECT_EQ(ring.head().load(), kItems);
  EXPECT_EQ(ring.tail().load(), kItems);
}

}  // namespace
}  // namespace deepsecure
