#include "obs/trace.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "support/spsc_ring.h"

namespace deepsecure::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

struct TraceEvent {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;
};

// One per producing thread. Kept alive by the tracer's thread list
// (shared_ptr) after the owning thread exits, so its tail is drainable.
struct ThreadRing {
  explicit ThreadRing(size_t cap, uint32_t tid_) : ring(cap), tid(tid_) {}
  SpscRing<TraceEvent> ring;
  uint32_t tid;
};

// Exporter buffer cap: ~1M events (~32 MB) before further events count
// as drops — a runaway trace degrades, it never OOMs the server.
constexpr size_t kMaxCollected = 1u << 20;

struct Tracer {
  std::mutex mu;  // guards threads/collected and serializes draining
  std::vector<std::shared_ptr<ThreadRing>> threads;
  std::vector<TraceEvent> collected;
  std::atomic<uint64_t> dropped{0};
  std::atomic<size_t> ring_capacity{4096};
  std::atomic<uint32_t> next_tid{1};
};

Tracer& tracer() {
  static Tracer* t = new Tracer();  // leaked: outlives every thread ring
  return *t;
}

ThreadRing& thread_ring() {
  thread_local std::shared_ptr<ThreadRing> mine = [] {
    Tracer& t = tracer();
    auto r = std::make_shared<ThreadRing>(
        t.ring_capacity.load(std::memory_order_relaxed),
        t.next_tid.fetch_add(1, std::memory_order_relaxed));
    std::lock_guard<std::mutex> lock(t.mu);
    t.threads.push_back(r);
    return r;
  }();
  return *mine;
}

void drain_locked(Tracer& t) {
  for (const auto& tr : t.threads) {
    TraceEvent ev;
    while (tr->ring.try_pop(ev)) {
      if (t.collected.size() >= kMaxCollected) {
        t.dropped.fetch_add(1, std::memory_order_relaxed);
        continue;  // keep popping: free the ring either way
      }
      t.collected.push_back(ev);
    }
  }
}

}  // namespace

namespace detail {

void trace_emit(const char* name, uint64_t start_ns, uint64_t dur_ns) {
  Tracer& t = tracer();
  ThreadRing& tr = thread_ring();
  TraceEvent ev{name, start_ns, dur_ns, tr.tid};
  if (!tr.ring.try_push(std::move(ev)))
    t.dropped.fetch_add(1, std::memory_order_relaxed);  // never block
}

}  // namespace detail

void set_trace_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void set_trace_ring_capacity(size_t events) {
  tracer().ring_capacity.store(events == 0 ? 2 : events,
                               std::memory_order_relaxed);
}

void trace_drain() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  drain_locked(t);
}

uint64_t trace_dropped() {
  return tracer().dropped.load(std::memory_order_relaxed);
}

size_t trace_collected() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.collected.size();
}

void trace_reset() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  drain_locked(t);  // clear ring backlogs too, not just the buffer
  t.collected.clear();
}

std::string chrome_trace_json() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  drain_locked(t);
  std::string out;
  out.reserve(64 + t.collected.size() * 96);
  out += "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < t.collected.size(); ++i) {
    const TraceEvent& e = t.collected[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  i == 0 ? "" : ",", e.name, e.tid,
                  static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"otherData\":{\"dropped\":%llu},"
                "\"displayTimeUnit\":\"ms\"}",
                static_cast<unsigned long long>(
                    t.dropped.load(std::memory_order_relaxed)));
  out += buf;
  return out;
}

}  // namespace deepsecure::obs
