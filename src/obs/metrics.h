// Lock-free metrics registry — the runtime observability substrate.
//
// Three instrument kinds, all safe to hammer from any number of threads
// with no locks on the hot path:
//
//   * Counter   — monotonic u64. add() is one relaxed fetch_add on a
//     per-thread-sharded, cache-line-aligned cell; value() sums the
//     shards. Contended increments from different threads land on
//     different cache lines, so a 1024-session burst never serializes
//     on a counter.
//   * Gauge     — signed level (queue depth, ring occupancy). Same
//     sharded cells with add()/sub(); value() is the summed level.
//     There is deliberately no set(): sharded cells cannot express
//     last-writer-wins, and every gauge in this codebase is a balance
//     of enter/leave events anyway.
//   * Histogram — log-bucketed latency/size distribution with fixed
//     power-of-two bins: value v lands in bucket bit_width(v) (bucket
//     0 holds exactly v == 0, bucket k holds [2^(k-1), 2^k)). 65 bins
//     cover the full u64 range, so there is nothing to configure and
//     any two histograms merge by adding bins. observe() is three
//     relaxed fetch_adds on the caller's shard.
//
// Snapshots are merges of the shards taken with relaxed loads while
// writers keep writing: each cell is monotonic, so repeated snapshots
// of a counter never go backwards, but a histogram's count/sum/bucket
// triple is not a consistent cut (count may be a hair ahead of the
// bucket sums). That is the documented trade for a zero-cost write
// path; consumers that need exactness snapshot quiescent registries
// (e.g. a test after joining its clients).
//
// Registries are instantiable: the InferenceServer owns one per
// instance (tests assert exact per-server counts; serial bench runs
// must not bleed into each other), while process-wide infrastructure
// (TCP channels, material pools) shares Registry::global(). Instrument
// handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime — resolve once, cache the reference, then the
// name lookup never appears on the hot path.
//
// Percentiles come from the merged bins by linear interpolation inside
// the winning bin — good to within the bin's 2x resolution, which is
// plenty for "where did the p99 go" questions. Snapshot::delta()
// subtracts a baseline snapshot bin-by-bin so one registry can serve
// many measurement windows.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/spsc_ring.h"  // kCacheLine

namespace deepsecure::obs {

/// Shards per instrument. Enough that a few dozen hot threads rarely
/// collide (collisions are still correct — just a shared cache line).
inline constexpr size_t kShards = 16;

/// Histogram bins: bucket 0 = {0}, bucket k (1..64) = [2^(k-1), 2^k).
inline constexpr size_t kBuckets = 65;

namespace detail {
/// Small per-thread shard index, assigned round-robin on first use.
size_t shard_index();

struct alignas(kCacheLine) Cell {
  std::atomic<uint64_t> v{0};
};
}  // namespace detail

class Counter {
 public:
  void add(uint64_t n = 1) {
    cells_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t t = 0;
    for (const auto& c : cells_) t += c.v.load(std::memory_order_relaxed);
    return t;
  }

 private:
  std::array<detail::Cell, kShards> cells_;
};

class Gauge {
 public:
  void add(int64_t n = 1) {
    cells_[detail::shard_index()].v.fetch_add(static_cast<uint64_t>(n),
                                              std::memory_order_relaxed);
  }
  void sub(int64_t n = 1) { add(-n); }
  /// Summed level. Can transiently undershoot/overshoot by in-flight
  /// add/sub pairs observed out of order; exact once writers quiesce.
  int64_t value() const {
    uint64_t t = 0;
    for (const auto& c : cells_) t += c.v.load(std::memory_order_relaxed);
    return static_cast<int64_t>(t);
  }

 private:
  std::array<detail::Cell, kShards> cells_;
};

/// Bucket index for a value: 0 for 0, else 64 - countl_zero(v).
size_t histogram_bucket(uint64_t v);
/// Inclusive lower bound of bucket b (0, 1, 2, 4, 8, ...).
uint64_t histogram_bucket_lo(size_t b);

class Histogram {
 public:
  void observe(uint64_t v) {
    Shard& s = shards_[detail::shard_index()];
    s.buckets[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const {
    uint64_t t = 0;
    for (const auto& s : shards_) t += s.count.load(std::memory_order_relaxed);
    return t;
  }
  uint64_t sum() const {
    uint64_t t = 0;
    for (const auto& s : shards_) t += s.sum.load(std::memory_order_relaxed);
    return t;
  }
  /// Merged bins (relaxed reads; see file header on consistency).
  std::array<uint64_t, kBuckets> merged_buckets() const;

 private:
  struct alignas(kCacheLine) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> count{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Point-in-time merge of a registry — plain data, safe to copy, diff,
/// and serialize off the hot path.
struct Snapshot {
  struct Hist {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kBuckets> buckets{};
    /// Quantile q in [0,1] by linear interpolation inside the winning
    /// log bucket. 0 when empty.
    double quantile(double q) const;
  };

  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<Hist> hists;

  /// this − baseline, matched by name: counters/hist bins subtract
  /// (names missing from the baseline pass through); gauges keep their
  /// current level (a level has no meaningful delta). The way one
  /// long-lived registry serves many measurement windows.
  Snapshot delta(const Snapshot& baseline) const;

  /// Compact JSON object:
  ///   {"counters":{...},"gauges":{...},
  ///    "hists":{"name":{"count":n,"sum":n,"p50":x,"p95":x,"p99":x,
  ///                     "buckets":[[lo,count],...]}}}
  /// Histogram quantiles are in the observed unit (this codebase
  /// observes nanoseconds for latencies, bytes for sizes). "buckets"
  /// lists the non-empty log-bucket bins as [lower_bound, count] pairs
  /// so scrapers can compute any quantile, not just the pre-baked ones.
  std::string to_json() const;

  const Hist* find_hist(std::string_view name) const;
  uint64_t counter_value(std::string_view name) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry for infrastructure metrics (net channels,
  /// material pools). Server instances own private registries instead.
  static Registry& global();

  /// Find-or-create by name. The returned reference is stable for the
  /// registry's lifetime. Registration takes a mutex — resolve once and
  /// cache the handle; never call these per event.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Merge every instrument's shards (relaxed; see file header).
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  // node-based maps: stable addresses across inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> hists_;
};

/// Monotonic nanoseconds since process start — the time base shared by
/// histograms and the span tracer.
uint64_t now_ns();

}  // namespace deepsecure::obs
