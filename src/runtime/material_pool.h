// Background producer of offline garbling artifacts — the client-side
// half of the offline/online split. A MaterialPool keeps up to `target`
// artifacts for one staged chain (synth/served.h) ready at all times:
// producer tasks run one at a time on a one-worker support/thread_pool,
// each garbling every stage of one instance, single-threaded, from
// fresh PRG seeds (one GarbledMaterial per
// stage: stages meet in arithmetic shares, not labels, so each has its
// own delta), and every acquire() triggers a refill so the pool
// converges back to `target` while the session is busy with the online
// phase.
//
// One artifact = one inference (labels must never be reused), so this
// is an inventory of consumables, not a cache: sizing follows Little's
// law — target ≈ arrival_rate × garble_time — and a drained pool is not
// an error, just the signal for the caller to fall back to on-demand
// streaming garbling (try_acquire returns nullopt instead of blocking).
// Finished artifacts wait in one mutex-guarded deque: each takes a
// whole garbling to make, so the handoff lock is never the bottleneck.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "crypto/prg.h"
#include "gc/material.h"
#include "obs/metrics.h"
#include "support/thread_pool.h"

namespace deepsecure::runtime {

/// Process-wide count of garbled artifacts DISCARDED because a session
/// failure interrupted their transfer or OT (Registry::global(),
/// `pool.poisoned` in stats_json/BENCH rows). One artifact = one
/// inference and labels must never be reused, so recovery poisons
/// anything partially consumed instead of replaying it — this counter
/// is the audit trail that the one-shot invariant held under chaos.
inline obs::Counter& poisoned_counter() {
  static obs::Counter& c = obs::Registry::global().counter("pool.poisoned");
  return c;
}

/// One pooled artifact: a GarbledMaterial per stage, in stage order.
using Artifact = std::vector<GarbledMaterial>;

/// The stage chains an artifact garbles, borrowed from their owner.
using StageChains =
    std::vector<std::reference_wrapper<const std::vector<Circuit>>>;

struct MaterialPoolConfig {
  /// Artifacts to keep ready at all times.
  size_t target = 1;
  /// Drives the per-artifact label seeds (zero = OS entropy); pass a
  /// constant only in tests.
  Block seed{};
};

class MaterialPool {
 public:
  /// Keeps up to `cfg.target` artifacts for `stages` ready. The chains
  /// are captured by reference and must outlive the pool.
  MaterialPool(StageChains stages, const GcOptions& opt,
               MaterialPoolConfig cfg);
  ~MaterialPool();

  MaterialPool(const MaterialPool&) = delete;
  MaterialPool& operator=(const MaterialPool&) = delete;

  /// Non-blocking: a ready artifact, or nullopt when drained (the
  /// caller's cue to garble on demand). Triggers a background refill
  /// either way. Rethrows a producer failure (bad chain/options) on
  /// the caller instead of reporting an eternal drain.
  std::optional<Artifact> try_acquire();

  /// Blocking: waits for production when drained. Used to warm the pool
  /// before a latency-sensitive phase. Rethrows producer failures.
  Artifact acquire();

  /// Artifacts currently ready.
  size_t ready() const;

  // Stats getters lock: the producer updates the counters under mu_.
  uint64_t produced() const {
    std::lock_guard<std::mutex> lock(mu_);
    return produced_;
  }
  uint64_t acquired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acquired_;
  }
  /// try_acquire calls that found the pool drained.
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  void schedule_refill_locked();
  void rethrow_error_locked();
  bool take_ready_locked(Artifact& out);
  void produce_one();

  StageChains stages_;
  GcOptions opt_;
  size_t target_;

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::deque<Artifact> ready_;  // oldest first
  Prg seed_prg_;
  size_t in_flight_ = 0;  // producer tasks scheduled but not yet finished
  size_t waiting_ = 0;    // acquire() calls blocked on production
  std::exception_ptr error_;  // first producer failure, rethrown on acquire
  bool stopping_ = false;

  uint64_t produced_ = 0;
  uint64_t acquired_ = 0;
  uint64_t misses_ = 0;

  // Process-wide instruments (Registry::global()): pools are client-side
  // infrastructure and tests create many short-lived ones, so these
  // aggregate across every pool in the process. The per-pool exact
  // counters above remain the source of truth for assertions.
  obs::Counter& c_hits_ = obs::Registry::global().counter("pool.hits");
  obs::Counter& c_misses_ = obs::Registry::global().counter("pool.misses");
  obs::Counter& c_produced_ = obs::Registry::global().counter("pool.produced");
  obs::Histogram& h_refill_ns_ =
      obs::Registry::global().histogram("pool.refill_ns");
  obs::Gauge& g_ready_ = obs::Registry::global().gauge("pool.ready");

  // The one producer worker. Destroyed first (declared last): its
  // destructor drains queued producer tasks, which touch the members
  // above.
  std::unique_ptr<ThreadPool> producer_;
};

}  // namespace deepsecure::runtime
