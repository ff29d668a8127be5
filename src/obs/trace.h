// Per-phase span tracer: RAII spans written to per-thread lock-free
// event rings (support/spsc_ring.h), drained by an exporter into
// chrome://tracing-compatible JSON (load the file at chrome://tracing
// or https://ui.perfetto.dev).
//
// Cost model — the reason this can stay compiled into the serving path:
//
//   * disabled (default): Span's constructor is ONE relaxed atomic
//     load; no clock read, no ring, no allocation. The destructor sees
//     a null name and does nothing.
//   * enabled: two steady_clock reads plus one SpscRing push into a
//     thread-local ring. No locks, no blocking — a full ring DROPS the
//     event and counts it (dropped()); tracing degrades, the serving
//     path never stalls on its own telemetry.
//
// Threading: each producing thread owns a private ring (it is the
// single producer); the exporter is the single consumer of every ring,
// serialized by the tracer's mutex. Rings are kept alive by the global
// tracer after their thread exits, so late drains still see the tail
// of a finished session thread.
//
// Span names must be string literals (or otherwise outlive the
// tracer): events store the pointer, not a copy.
//
// Typical wiring (see perfbench/deepsecure_bench.cpp --trace 1):
//
//   obs::set_trace_enabled(true);
//   ... run the workload; hot paths construct obs::Span("phase") ...
//   const std::string json = obs::chrome_trace_json();  // drains + serializes
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace deepsecure::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
void trace_emit(const char* name, uint64_t start_ns, uint64_t dur_ns);
}  // namespace detail

/// The single relaxed load every potential span pays when disabled.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Flip tracing on/off. Spans already open complete normally (their
/// constructor's decision stands).
void set_trace_enabled(bool on);

/// Events a NEW thread ring can hold before overrunning (existing rings
/// keep their size). Power of two, default 4096. Call before enabling.
void set_trace_ring_capacity(size_t events);

/// RAII span: measures construction → destruction and emits one
/// complete ("ph":"X") event. `name` must outlive the tracer (use a
/// string literal).
class Span {
 public:
  explicit Span(const char* name) {
    if (trace_enabled()) {
      name_ = name;
      start_ns_ = now_ns();
    }
  }
  ~Span() {
    if (name_ != nullptr)
      detail::trace_emit(name_, start_ns_, now_ns() - start_ns_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span early (emits now; the destructor becomes a no-op).
  void end() {
    if (name_ != nullptr) {
      detail::trace_emit(name_, start_ns_, now_ns() - start_ns_);
      name_ = nullptr;
    }
  }

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
};

/// Record an already-measured interval as a span (for phases whose
/// start/end do not nest lexically, e.g. park → readiness dispatch).
inline void trace_interval(const char* name, uint64_t start_ns,
                           uint64_t dur_ns) {
  if (trace_enabled()) detail::trace_emit(name, start_ns, dur_ns);
}

/// Move every ring's pending events into the exporter buffer. Called
/// automatically by chrome_trace_json; call it mid-run to bound ring
/// occupancy during long workloads.
void trace_drain();

/// Events dropped on full rings (or a full exporter buffer) since
/// process start. Monotonic, never reset.
uint64_t trace_dropped();

/// Events currently held in the exporter buffer (post-drain).
size_t trace_collected();

/// Drop all collected events and start a fresh trace window.
void trace_reset();

/// Drain, then serialize every collected event as chrome://tracing
/// JSON: {"traceEvents":[{"name","ph":"X","pid","tid","ts","dur"},...]}
/// with ts/dur in microseconds.
std::string chrome_trace_json();

}  // namespace deepsecure::obs
