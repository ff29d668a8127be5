// Offline-phase scaling: intra-artifact window sharding. The headline
// invariant is byte-identity — garble_offline with its batch windows
// sharded across a ThreadPool must produce EXACTLY the artifact the
// sequential path produces (table stream, labels, decode bits, delta,
// fingerprint), at every thread count, so sharding can never change
// what the evaluator consumes.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "circuit/bench_circuits.h"
#include "gc/material.h"
#include "runtime/material_pool.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace deepsecure {
namespace {

std::vector<Circuit> wide_chain(size_t gates, size_t layers) {
  std::vector<Circuit> chain;
  for (size_t l = 0; l < layers; ++l)
    chain.push_back(bench_circuits::wide_chain_layer(gates));
  return chain;
}

void expect_identical(const GarbledMaterial& a, const GarbledMaterial& b,
                      const char* what) {
  EXPECT_EQ(a.fingerprint, b.fingerprint) << what;
  EXPECT_TRUE(a.delta == b.delta) << what;
  EXPECT_EQ(a.data_zeros, b.data_zeros) << what;
  EXPECT_EQ(a.eval_zeros, b.eval_zeros) << what;
  EXPECT_EQ(a.decode_bits, b.decode_bits) << what;
  // Full-stream equality, not just a hash: the table stream is the
  // artifact (EXPECT, not ASSERT, so every shard count reports).
  EXPECT_EQ(a.tables, b.tables) << what;
}

TEST(MaterialShard, ShardedGarbleOfflineByteIdenticalAcrossThreadCounts) {
  // Windows wide enough to actually shard (> min_shard_gates per slice)
  // plus a capacity-spilling layer so mid-level drains are exercised.
  const std::vector<Circuit> chain = wide_chain(3 * kGcMaxBatchWindow + 77, 2);
  const Block seed{2026, 727};

  const GarbledMaterial sequential = garble_offline(chain, seed);
  for (size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    GcOptions opt;
    opt.pool = &pool;
    const GarbledMaterial sharded = garble_offline(chain, seed, opt);
    expect_identical(sequential, sharded,
                     threads == 1   ? "1 shard thread"
                     : threads == 2 ? "2 shard threads"
                     : threads == 3 ? "3 shard threads"
                                    : "4 shard threads");
  }
}

TEST(MaterialShard, ScalarPipelineAgreesWithShardedBatched) {
  // The scalar reference path never shards; the sharded batched path
  // must still land on its exact byte stream.
  const std::vector<Circuit> chain = wide_chain(kGcMaxBatchWindow + 33, 1);
  const Block seed{11, 22};

  GcOptions scalar;
  scalar.pipeline = GcPipeline::kScalar;
  const GarbledMaterial reference = garble_offline(chain, seed, scalar);

  ThreadPool pool(3);
  GcOptions sharded;
  sharded.pool = &pool;
  expect_identical(reference, garble_offline(chain, seed, sharded),
                   "scalar vs sharded batched");
}

TEST(MaterialShard, PoolShardThreadsProduceIdenticalArtifactSequence) {
  // A MaterialPool with shard_threads must hand out the same artifact
  // sequence as an unsharded pool from the same seed: sharding changes
  // only where the hashing runs. One producer keeps the seed->artifact
  // order deterministic on both sides.
  const std::vector<Circuit> chain = wide_chain(kGcMaxBatchWindow, 1);

  runtime::MaterialPoolConfig base;
  base.target = 2;
  base.producer_threads = 1;
  base.seed = Block{7, 77};
  runtime::MaterialPoolConfig sharded = base;
  sharded.shard_threads = 3;

  runtime::MaterialPool plain({chain}, GcOptions{}, base);
  runtime::MaterialPool fast({chain}, GcOptions{}, sharded);
  for (int i = 0; i < 2; ++i) {
    const GarbledMaterial a = plain.acquire().front();
    const GarbledMaterial b = fast.acquire().front();
    expect_identical(a, b, i == 0 ? "artifact 0" : "artifact 1");
  }
}

TEST(MaterialShard, ShardedPoolRefillsAfterDrain) {
  // Drain-and-refill still behaves with intra-artifact sharding on:
  // the shared shard pool serves successive producer tasks.
  const std::vector<Circuit> chain = wide_chain(2 * kGcMaxBatchWindow, 1);
  runtime::MaterialPoolConfig cfg;
  cfg.target = 2;
  cfg.producer_threads = 2;
  cfg.shard_threads = 2;
  cfg.seed = Block{5, 55};
  runtime::MaterialPool pool({chain}, GcOptions{}, cfg);

  const GarbledMaterial a = pool.acquire().front();
  const GarbledMaterial b = pool.acquire().front();
  EXPECT_FALSE(a.delta == b.delta);  // distinct artifacts
  Stopwatch sw;
  while (pool.ready() < 2 && sw.seconds() < 30.0) std::this_thread::yield();
  EXPECT_GE(pool.ready(), 2u);
}

}  // namespace
}  // namespace deepsecure
