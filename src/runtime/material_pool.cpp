#include "runtime/material_pool.h"

#include <algorithm>

#include "obs/trace.h"

namespace deepsecure::runtime {

MaterialPool::MaterialPool(StageChains stages, const GcOptions& opt,
                           MaterialPoolConfig cfg)
    : stages_(std::move(stages)),
      opt_(opt),
      target_(cfg.target),
      seed_prg_(cfg.seed == Block{} ? Prg::from_os_entropy().next_block()
                                    : cfg.seed),
      producer_(std::make_unique<ThreadPool>()) {
  // One producer task per artifact, garbled on the one worker.
  std::lock_guard<std::mutex> lock(mu_);
  schedule_refill_locked();
}

MaterialPool::~MaterialPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;  // queued producer tasks become no-ops
  }
  producer_.reset();  // drains the task queue, joins the workers
  // Unconsumed inventory dies with the pool: settle the process-wide
  // occupancy gauge so short-lived pools don't leave it elevated.
  g_ready_.sub(static_cast<int64_t>(ready_.size()));
}

// Caller holds mu_. Keeps enough production scheduled for the standing
// inventory (`target_`) AND every currently blocked acquire() — the
// latter matters at target 0, and whenever an artifact is taken out
// from under a waiter whose ad-hoc production it consumed.
void MaterialPool::schedule_refill_locked() {
  const size_t want = std::max(target_, waiting_);
  while (!stopping_ && ready_.size() + in_flight_ < want) {
    ++in_flight_;
    producer_->submit([this] { produce_one(); });
  }
}

void MaterialPool::produce_one() {
  std::vector<Block> seeds;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      --in_flight_;
      return;
    }
    for (size_t s = 0; s < stages_.size(); ++s)
      seeds.push_back(seed_prg_.next_block());
  }
  // Garble outside the lock — this is the expensive part the pool
  // exists to keep off the request path. Exceptions must not escape
  // (they would terminate the worker thread); they are parked for the
  // next acquire to rethrow instead.
  Artifact mat;
  std::exception_ptr err;
  const uint64_t t0 = obs::now_ns();
  {
    // Named for the merged two-party timeline: this is the client
    // (garbler) side's offline work, run on the pool's worker.
    obs::Span span("client.garble_offline");
    try {
      for (size_t s = 0; s < stages_.size(); ++s)
        mat.push_back(garble_offline(stages_[s].get(), seeds[s], opt_));
    } catch (...) {
      err = std::current_exception();
    }
  }
  if (!err) h_refill_ns_.observe(obs::now_ns() - t0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    if (stopping_) return;
    if (err) {
      if (!error_) error_ = err;
    } else {
      ready_.push_back(std::move(mat));
      g_ready_.add(1);
      ++produced_;
      c_produced_.add();
    }
  }
  // notify_all: concurrent acquirers each submitted their own
  // production, so every waiter may have an artifact (or the parked
  // error) to pick up.
  ready_cv_.notify_all();
}

// Caller holds mu_. A parked producer error is rethrown (sticky: the
// chain/options are wrong for every future artifact too).
void MaterialPool::rethrow_error_locked() {
  if (error_) std::rethrow_exception(error_);
}

// Caller holds mu_.
bool MaterialPool::take_ready_locked(Artifact& out) {
  if (ready_.empty()) return false;
  out = std::move(ready_.front());
  ready_.pop_front();
  g_ready_.sub(1);
  return true;
}

std::optional<Artifact> MaterialPool::try_acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  Artifact mat;
  if (!take_ready_locked(mat)) {
    rethrow_error_locked();
    ++misses_;
    c_misses_.add();
    schedule_refill_locked();
    // Honor "triggers a refill either way" at target 0 too: a caller
    // polling try_acquire must eventually get an artifact even though
    // the standing refill plan is empty.
    if (!stopping_ && in_flight_ == 0) {
      ++in_flight_;
      producer_->submit([this] { produce_one(); });
    }
    return std::nullopt;
  }
  ++acquired_;
  c_hits_.add();
  schedule_refill_locked();
  return mat;
}

Artifact MaterialPool::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  rethrow_error_locked();
  ++waiting_;
  schedule_refill_locked();
  Artifact mat;
  bool got = false;
  ready_cv_.wait(lock,
                 [&] { return (got = take_ready_locked(mat)) || error_; });
  --waiting_;
  if (!got) rethrow_error_locked();  // woke on a parked producer error
  ++acquired_;
  c_hits_.add();
  schedule_refill_locked();
  return mat;
}

size_t MaterialPool::ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ready_.size();
}

}  // namespace deepsecure::runtime
