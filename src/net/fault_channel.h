// Deterministic fault-injection decorator — the chaos plane behind the
// self-healing session layer. A FaultChannel wraps any Channel and,
// from a seeded per-connection plan (crypto/prg.h — identical seed ⇒
// identical fault sequence), injects the network's failure modes into
// an otherwise healthy transport:
//
//   short write / short read — one call split into two inner calls (or
//     a clamped recv_some window), exercising every resume path;
//   delay — tens-to-hundreds of microseconds of added latency;
//   stall — a multi-millisecond pause, the shape phase deadlines exist
//     to bound;
//   reset — the connection dies: an optional hook (typically
//     TcpChannel::shutdown on the underlying socket, so the PEER
//     observes the drop too) runs, then the operation throws;
//   corrupt (opt-in, FaultConfig::corrupt) — one flipped bit in the
//     payload. Off by default because garbled-circuit evaluation over
//     corrupted tables is silently wrong, not loudly wrong: the chaos
//     soak must keep end-to-end byte-correctness checkable.
//
// Faults are drawn per channel operation with probability
// FaultConfig::rate, so the plan composes with any decorator stack
// (Buffered/Ring layers above, TcpChannel below) without knowing about
// it. Every injection is counted process-wide (faultstat:: below,
// `fault.*` in stats_json and BENCH rows) so a chaos run can assert
// "≥ 1 fault actually happened" rather than trusting the dice.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "crypto/prg.h"
#include "net/channel.h"
#include "obs/metrics.h"

namespace deepsecure {

namespace faultstat {
// Process-wide chaos instruments (Registry::global()), one per fault
// kind plus the total. Same resolve-once pattern as netstat::.
inline obs::Counter& injected() {
  static obs::Counter& c = obs::Registry::global().counter("fault.injected");
  return c;
}
inline obs::Counter& short_writes() {
  static obs::Counter& c =
      obs::Registry::global().counter("fault.short_write");
  return c;
}
inline obs::Counter& short_reads() {
  static obs::Counter& c = obs::Registry::global().counter("fault.short_read");
  return c;
}
inline obs::Counter& delays() {
  static obs::Counter& c = obs::Registry::global().counter("fault.delay");
  return c;
}
inline obs::Counter& stalls() {
  static obs::Counter& c = obs::Registry::global().counter("fault.stall");
  return c;
}
inline obs::Counter& resets() {
  static obs::Counter& c = obs::Registry::global().counter("fault.reset");
  return c;
}
inline obs::Counter& corruptions() {
  static obs::Counter& c = obs::Registry::global().counter("fault.corrupt");
  return c;
}
}  // namespace faultstat

/// Chaos parameters, carried by ClientConfig/ServerConfig. rate == 0
/// (the default) means the decorator is never even constructed — the
/// healthy path stays untouched.
struct FaultConfig {
  /// Root seed of the fault plan. Every connection derives its own PRG
  /// stream from (seed, plan_index), so one seed reproduces the whole
  /// run's fault schedule connection-by-connection.
  uint64_t seed = 0;
  /// Per-operation fault probability in [0, 1].
  double rate = 0.0;
  /// Also flip payload bits (see file header for why this is opt-in).
  bool corrupt = false;

  bool enabled() const { return rate > 0.0; }
};

class FaultChannel final : public Channel {
 public:
  /// Runs when a reset fault fires, BEFORE the injected throw — wire it
  /// to TcpChannel::shutdown so both ends observe the failure.
  using ResetHook = std::function<void()>;

  /// `plan_index` distinguishes connections sharing one FaultConfig
  /// (session vs lane, connection attempt number): each index is an
  /// independent deterministic stream.
  FaultChannel(Channel& inner, const FaultConfig& cfg, uint64_t plan_index,
               ResetHook on_reset = {})
      : inner_(inner),
        corrupt_(cfg.corrupt),
        on_reset_(std::move(on_reset)),
        plan_(Block{cfg.seed ^ 0x8f4a'11c5'27d3'6b91ull,
                    plan_index ^ 0x5c6e'f0d9'3a21'74b7ull}) {
    const double r = std::clamp(cfg.rate, 0.0, 1.0);
    // Probability as a u64 threshold: fault iff next_u64() < threshold.
    threshold_ = static_cast<uint64_t>(
        r * 18446744073709551615.0 /* 2^64 - 1 */);
  }

  void send_bytes(const void* data, size_t n) override {
    const auto kind = draw();
    if (!kind) {
      inner_.send_bytes(data, n);
      return;
    }
    const auto* p = static_cast<const uint8_t*>(data);
    switch (*kind) {
      case Kind::kShort: {
        faultstat::short_writes().add();
        if (n < 2) {
          inner_.send_bytes(p, n);
          break;
        }
        const size_t cut = 1 + static_cast<size_t>(plan_.next_u64() % (n - 1));
        inner_.send_bytes(p, cut);
        std::this_thread::yield();  // let the peer see the partial frame
        inner_.send_bytes(p + cut, n - cut);
        break;
      }
      case Kind::kCorrupt: {
        faultstat::corruptions().add();
        std::vector<uint8_t> tainted(p, p + n);
        if (n > 0)
          tainted[plan_.next_u64() % n] ^=
              static_cast<uint8_t>(1u << (plan_.next_u64() % 8));
        inner_.send_bytes(tainted.data(), n);
        break;
      }
      case Kind::kDelay:
      case Kind::kStall:
        sleep_for(*kind);
        inner_.send_bytes(p, n);
        break;
      case Kind::kReset:
        inject_reset();
    }
  }

  void recv_bytes(void* data, size_t n) override {
    const auto kind = draw();
    if (!kind) {
      inner_.recv_bytes(data, n);
      return;
    }
    auto* p = static_cast<uint8_t*>(data);
    switch (*kind) {
      case Kind::kShort: {
        faultstat::short_reads().add();
        if (n < 2) {
          inner_.recv_bytes(p, n);
          break;
        }
        const size_t cut = 1 + static_cast<size_t>(plan_.next_u64() % (n - 1));
        inner_.recv_bytes(p, cut);
        std::this_thread::yield();
        inner_.recv_bytes(p + cut, n - cut);
        break;
      }
      case Kind::kCorrupt: {
        faultstat::corruptions().add();
        inner_.recv_bytes(p, n);
        if (n > 0)
          p[plan_.next_u64() % n] ^=
              static_cast<uint8_t>(1u << (plan_.next_u64() % 8));
        break;
      }
      case Kind::kDelay:
      case Kind::kStall:
        sleep_for(*kind);
        inner_.recv_bytes(p, n);
        break;
      case Kind::kReset:
        inject_reset();
    }
  }

  size_t recv_some(void* data, size_t min_n, size_t max_n) override {
    const auto kind = draw();
    if (!kind) return inner_.recv_some(data, min_n, max_n);
    switch (*kind) {
      case Kind::kShort:
        // A short read here is a clamped window: the inner transport
        // may return as little as min_n, so the read-ahead path above
        // (BufferedChannel) sees the sparsest arrival it ever could.
        faultstat::short_reads().add();
        return inner_.recv_some(data, min_n, min_n);
      case Kind::kCorrupt: {
        faultstat::corruptions().add();
        const size_t got = inner_.recv_some(data, min_n, max_n);
        if (got > 0)
          static_cast<uint8_t*>(data)[plan_.next_u64() % got] ^=
              static_cast<uint8_t>(1u << (plan_.next_u64() % 8));
        return got;
      }
      case Kind::kDelay:
      case Kind::kStall:
        sleep_for(*kind);
        return inner_.recv_some(data, min_n, max_n);
      case Kind::kReset:
        inject_reset();
    }
    return 0;  // unreachable
  }

  void send_iov(IoSlice* slices, size_t n) override {
    const auto kind = draw();
    if (!kind) {
      inner_.send_iov(slices, n);
      return;
    }
    switch (*kind) {
      case Kind::kShort: {
        // Split the vectored send at a byte offset: two inner send_iov
        // calls, so a transport's partial-completion handling (the
        // TcpChannel sendmsg resume loop) runs against genuinely
        // fragmented submissions. The straddled slice's ref is COPIED
        // into the head half — the pin holds until both halves ship.
        faultstat::short_writes().add();
        size_t total = 0;
        for (size_t i = 0; i < n; ++i) total += slices[i].len;
        if (total < 2) {
          inner_.send_iov(slices, n);
          break;
        }
        const size_t cut =
            1 + static_cast<size_t>(plan_.next_u64() % (total - 1));
        std::vector<IoSlice> head, tail;
        size_t off = 0;
        for (size_t i = 0; i < n; ++i) {
          IoSlice& s = slices[i];
          if (off + s.len <= cut) {
            head.push_back(std::move(s));
          } else if (off >= cut) {
            tail.push_back(std::move(s));
          } else {
            const size_t k = cut - off;
            head.push_back(IoSlice{s.data, k, s.ref});  // ref copy: pin
            tail.push_back(IoSlice{static_cast<const uint8_t*>(s.data) + k,
                                   s.len - k, std::move(s.ref)});
          }
          off += s.len;
        }
        inner_.send_iov(head.data(), head.size());
        std::this_thread::yield();
        inner_.send_iov(tail.data(), tail.size());
        break;
      }
      case Kind::kCorrupt:  // vectored payloads are borrowed/immutable;
      case Kind::kDelay:    // degrade corrupt to a delay here
      case Kind::kStall:
        sleep_for(*kind == Kind::kStall ? Kind::kStall : Kind::kDelay);
        inner_.send_iov(slices, n);
        break;
      case Kind::kReset:
        inject_reset();
    }
  }

  /// Faults injected by THIS channel instance (the global `fault.*`
  /// counters aggregate across every instance in the process).
  uint64_t injected() const { return injected_; }

  uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
  uint64_t bytes_received() const override { return inner_.bytes_received(); }
  void reset_counters() override { inner_.reset_counters(); }

 private:
  enum class Kind { kShort, kDelay, kStall, kReset, kCorrupt };

  std::optional<Kind> draw() {
    if (threshold_ == 0) return std::nullopt;
    if (plan_.next_u64() >= threshold_) return std::nullopt;
    ++injected_;
    faultstat::injected().add();
    // Weighted kinds: plenty of benign reordering pressure, a steady
    // trickle of hard failures. Corruption's slot degrades to a delay
    // unless explicitly opted in.
    const uint64_t r = plan_.next_u64() % 100;
    if (r < 35) return Kind::kShort;
    if (r < 65) {
      faultstat::delays().add();
      return Kind::kDelay;
    }
    if (r < 85) {
      faultstat::stalls().add();
      return Kind::kStall;
    }
    if (r < 95) return Kind::kReset;
    if (corrupt_) return Kind::kCorrupt;
    faultstat::delays().add();
    return Kind::kDelay;
  }

  void sleep_for(Kind k) {
    if (k == Kind::kStall)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(2 + plan_.next_u64() % 8));
    else
      std::this_thread::sleep_for(
          std::chrono::microseconds(50 + plan_.next_u64() % 250));
  }

  [[noreturn]] void inject_reset() {
    faultstat::resets().add();
    if (on_reset_) on_reset_();
    throw std::runtime_error("fault: injected connection reset");
  }

  Channel& inner_;
  bool corrupt_;
  ResetHook on_reset_;
  Prg plan_;
  uint64_t threshold_ = 0;
  uint64_t injected_ = 0;
};

}  // namespace deepsecure
